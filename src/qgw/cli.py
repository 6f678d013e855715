"""Command-line front end.

Generates fixture bundles and runs the certification commands on them.  A
bundle is one JSON document whose sections reference each other by name.
A check command hands one lazily built bundle context to its certifier and
prints the certificate as a check table.  Exit codes: 0 when every check
passes, 1 when one fails, 2 on malformed input (a bundle, an argument, or
an --in or --out path) or when memory runs out.  The functions that use
cbase, fiber, fixtures, hopf, pmu and rtensor import them, so a command
loads only the modules it runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import serialize
from .errors import FormatError, PreconditionError, QgwError
from .gns import gns
from .linalg import Tolerance, dagger, unitary_residual
from .report import Certificate, Check, Report, checks_from_residuals
from .staralg import algebra_from_generators


def resolve_tolerance(value: float | None) -> Tolerance:
    if value is None:
        env = os.environ.get("QGW_TOLERANCE")
        try:
            value = float(env) if env else 1e-9
        except ValueError:
            raise FormatError(f"QGW_TOLERANCE is not a number: {env!r}") from None
    if not 0.0 < value < float("inf"):
        raise FormatError(f"tolerance must be positive and finite, got {value}")
    return Tolerance(eps=value)


def load_bundle(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_hook=serialize.pack_matrix)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: malformed JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(
            f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    return serialize.check_bundle(doc, path)


# bundle assembly


def groupoid_bundle_json(gpd: FiniteGroupoid, source: dict,
                         tol: Tolerance) -> dict:
    from .hopf import groupoid_hopf, perturbed_hopf
    from .pmu import groupoid_pmu, phase_perturbed_candidate, swapped_candidate
    hopf_data = groupoid_hopf(gpd, tol=tol)
    if source["hopf_perturb"] is not None:
        hopf_data = perturbed_hopf(hopf_data, seed=source["hopf_perturb"])
    pmu_data = groupoid_pmu(gpd, tol=tol)
    cand = pmu_data["candidate"]
    if source["variant"] == "swap":
        cand = swapped_candidate(pmu_data)
    elif source["variant"] == "phase":
        cand = phase_perturbed_candidate(pmu_data, source["angle"])
    out = serialize.bundle_skeleton("groupoid", source, tol)
    out["state"] = serialize.encode_state(hopf_data["triple"].state)
    out["arrow_algebra"] = serialize.encode_algebra(hopf_data["algebra"])
    out["reps"] = {
        name: serialize.encode_stack(hopf_data[key]) for name, key in
        (("rho", "rho"), ("sigma", "sigma"), ("sigma_hat", "source_stack"))
    }
    out["factorizations"] = {
        name: serialize.encode_factorization(data[name], "state")
        for data, names in ((hopf_data, ("alpha", "beta")),
                            (pmu_data, ("beta_hat", "alpha_flipped")))
        for name in names
    }
    # per flavor: Delta's image stack and the class map of its square
    out["hopf"] = {
        side: {
            "side": side,
            "A": "arrow_algebra",
            "Delta": serialize.encode_morphism(
                hopf_data[f"delta_{key}"], "arrow_algebra", f"fiber-{side}"
            ),
            "classes": serialize.encode_matrix(
                hopf_data[f"{key}_space"].class_map),
            "legs": {leg: f"{section}.{leg}" for leg in legs},
        }
        for side, key, section, legs in (
            ("state", "state", "reps", ("rho", "sigma")),
            ("operator", "cstar", "factorizations", ("alpha", "beta")),
        )
    }
    out["pmu"] = {
        "base": "state",
        "reps": {name: f"reps.{name}"
                 for name in ("rho", "sigma", "sigma_hat")},
        "V": serialize.encode_matrix(cand.v_matrix),
        "coordinate_maps": {
            "source_classes": serialize.encode_matrix(
                cand.source_space.class_map),
            "target_sections": serialize.encode_matrix(
                cand.target_space.section),
        },
    }
    return out


def linked_bundle_json(source: dict, tol: Tolerance) -> dict:
    from .fixtures import linked_bundle
    data = linked_bundle(source["blocks"], source["mult_left"],
                         source["mult_right"], source["seed"], tol)
    out = serialize.bundle_skeleton("linked", source, tol)
    out["state"] = serialize.encode_state(data["triple"].state)
    out["base"] = serialize.encode_base(data["base"])
    out["reps"] = {name: serialize.encode_stack(data[name])
                   for name in ("rho", "sigma")}
    out["factorizations"] = {
        name: serialize.encode_factorization(data[name], "state")
        for name in ("alpha", "beta")
    }
    return out


# the bundle context


def kept(build):
    """Keep what a context method builds, per context and arguments, so
    each object is decoded or built once."""
    @functools.wraps(build)
    def once(ctx, *args):
        key = (build.__name__,) + args
        if key not in ctx.kept:
            ctx.kept[key] = build(ctx, *args)
        return ctx.kept[key]
    return once


class BundleContext:
    """One bundle and the objects the check commands build from it.

    Each object is decoded or built on first use and kept, so a command
    builds only what its certifier reads, and a command composing others
    builds each object once.
    """

    def __init__(self, path: str, tol: Tolerance):
        self.doc = load_bundle(path)
        self.tol = tol
        self.kept = {}

    def section(self, *path) -> dict:
        """The object at path; FormatError unless it and every section
        holding it exist and are objects."""
        obj = self.entry(*path) if path else self.doc
        if not isinstance(obj, dict):
            raise FormatError(
                f"{'.'.join(path)}: expected an object, "
                f"got {type(obj).__name__}"
            )
        return obj

    def entry(self, *path):
        """The value at path, which must exist inside a section."""
        *parent, name = path
        sec = self.section(*parent)
        if name not in sec:
            raise FormatError(
                f"{'.'.join(parent) or 'bundle'} lacks section '{name}'"
            )
        return sec[name]

    @property
    @kept
    def state(self):
        return serialize.decode_state(self.section("state"), "state", self.tol)

    @property
    @kept
    def triple(self):
        return gns(self.state.algebra, self.state, self.tol)

    @property
    @kept
    def base(self):
        """The bundle's base section, or the triple's base without one;
        every factorization, and so every square, lives over it."""
        from .cbase import cbase_from_state
        if "base" not in self.doc:
            return cbase_from_state(self.triple)
        return serialize.decode_base(self.section("base"), "base", self.tol)

    @kept
    def rep(self, name: str) -> np.ndarray:
        where = f"reps.{name}"
        stack = serialize.decode_stack(self.entry("reps", name), where)
        if stack.shape[1] != stack.shape[2]:
            raise FormatError(
                f"{where}: matrices must be square, got {stack.shape[1:]}"
            )
        return stack

    @kept
    def factorization(self, name: str):
        """The named factorization over the context's base, certified."""
        return serialize.decode_factorization(
            self.entry("factorizations", name), self.base,
            f"factorizations.{name}", self.tol,
        )

    @property
    @kept
    def squares(self):
        return load_squares(self)

    @property
    @kept
    def phi(self):
        from .rtensor import phi_unitary
        return phi_unitary(*self.squares)

    @property
    @kept
    def arrow(self):
        return serialize.decode_algebra(
            self.section("arrow_algebra"), "arrow_algebra", self.tol
        )

    @kept
    def delta(self, flavor: str) -> np.ndarray:
        """Comultiplication of the hopf section's "state" or "operator"
        flavor: its image stack aligned with the arrow algebra's basis, each
        image an operator on that flavor's square.  The images are stored in
        the coordinates of the class map "classes"; the unitary T = class_map
        . pinv(classes) moves them into this square's."""
        where, sec = f"hopf.{flavor}", self.section("hopf", flavor)
        images = serialize.decode_morphism(
            self.entry("hopf", flavor, "Delta"), self.arrow.dim,
            f"{where}.Delta")
        vn, cs = self.squares
        square = cs if flavor == "operator" else vn
        if images.shape[1:] != (square.dim,) * 2:
            raise FormatError(f"{where}.Delta: images are {images.shape[1:]},"
                              f" the square is {(square.dim,) * 2}")
        where += ".classes"
        classes = serialize.decode_matrix(sec.get("classes"), where)
        if classes.shape != square.class_map.shape:
            raise FormatError(f"{where}: expected a matrix of shape "
                              f"{square.class_map.shape}, got {classes.shape}")
        t = square.class_map @ np.linalg.pinv(classes)
        if not unitary_residual(t) <= self.tol.check:
            raise FormatError(f"{where}: no class map of the square, off "
                              f"unitary by {unitary_residual(t):.3e}")
        return t @ images @ dagger(t)

    @property
    @kept
    def candidate(self) -> PmuCandidate:
        from .pmu import PmuCandidate
        v_hat, src_classes, tgt_sections = (
            serialize.decode_matrix(self.entry("pmu", *path),
                                    ".".join(("pmu",) + path))
            for path in (("V",), ("coordinate_maps", "source_classes"),
                         ("coordinate_maps", "target_sections")))
        if v_hat.shape != (tgt_sections.shape[1], src_classes.shape[0]):
            raise FormatError(
                "pmu.V does not connect the stored coordinate maps"
            )
        return PmuCandidate(
            self.triple, self.rep("sigma_hat"), self.rep("rho"),
            self.rep("sigma"), tgt_sections @ v_hat @ src_classes, self.tol,
        )


def load_squares(ctx: BundleContext):
    """Both flavors of the relative square described by a bundle."""
    from .rtensor import rtp_cstar, rtp_state
    vn = rtp_state(ctx.triple, ctx.rep("rho"), ctx.rep("sigma"), tol=ctx.tol)
    cs = rtp_cstar(ctx.factorization("alpha"), ctx.factorization("beta"),
                   tol=ctx.tol)
    return vn, cs


# certifiers: each maps a bundle context to the certificate of one command


def certify_gns(ctx: BundleContext) -> Certificate:
    return Certificate(ctx.triple.certificates(), ctx.tol)


def certify_base(ctx: BundleContext) -> Certificate:
    from .cbase import base_equivalence, modular_conjugation_of_base
    base = ctx.base
    parts = {}
    if base.cyclic_vector is not None:
        parts["conjugation"] = modular_conjugation_of_base(base)[1]
        parts["rebuild"] = base_equivalence(base)[1]
    return Certificate(base.standard_report(), ctx.tol, parts)


def certify_factorizations(ctx: BundleContext) -> Certificate:
    facts = ctx.section("factorizations")
    parts = {}
    for name in sorted(facts):
        fact = serialize.decode_factorization(
            facts[name], ctx.base, f"factorizations.{name}", ctx.tol,
            certify=False,
        )
        action = Certificate(fact.rho_report(), ctx.tol)
        parts[name] = Certificate(fact.axiom_report(), ctx.tol,
                                  {"action": action})
    return Certificate({}, ctx.tol, parts)


def certify_squares(ctx: BundleContext) -> Certificate:
    vn, cs = ctx.squares
    return Certificate({
        "dimension_defect": float(abs(vn.dim - cs.dim)),
        "state_gram_hermitian": vn.hermitian_defect,
        "operator_gram_hermitian": cs.hermitian_defect,
        "state_gram_psd": vn.psd_defect,
        "operator_gram_psd": cs.psd_defect,
    }, ctx.tol)


def certify_phi(ctx: BundleContext) -> Certificate:
    return ctx.phi[1]


def certify_fiber(ctx: BundleContext) -> Certificate:
    from .fiber import fiber_equivalence
    rho, sigma = ctx.rep("rho"), ctx.rep("sigma")
    return fiber_equivalence(
        *ctx.squares, algebra_from_generators(rho.shape[1], rho, ctx.tol),
        algebra_from_generators(sigma.shape[1], sigma, ctx.tol), ctx.phi[0],
    )


def certify_morphism(ctx: BundleContext) -> Certificate:
    from .fiber import fiber_spatial, is_morphism
    from .rtensor import ket_factorization
    _, cs = ctx.squares
    arrow = ctx.arrow
    delta = ctx.delta("operator")
    alpha = ctx.factorization("alpha")
    fp = fiber_spatial(cs, arrow, arrow)
    alpha2 = ket_factorization(cs, alpha, alpha, leg=0, flipped=False)
    try:
        cert = is_morphism(delta, arrow, alpha, fp, alpha2)
    except PreconditionError:
        return Certificate({"preconditions": 1.0, "is_morphism": 1.0},
                           ctx.tol)
    return Certificate(
        {**cert.residuals, "is_morphism": 0.0 if cert.ok else 1.0}, ctx.tol
    )


def certify_hopf(ctx: BundleContext) -> Certificate:
    from .hopf import hopf_equivalence
    vn, cs = ctx.squares
    return hopf_equivalence(
        vn, cs, ctx.arrow, ctx.delta("state"), ctx.delta("operator"),
        ctx.phi[0],
    )


def certify_pmu(ctx: BundleContext) -> Certificate:
    from .pmu import pmu_equivalence
    facts = [ctx.factorization(name)
             for name in ("beta_hat", "alpha_flipped", "alpha", "beta")]
    return pmu_equivalence(ctx.candidate, *facts)


def certify_equivalence(ctx: BundleContext) -> Certificate:
    """The flavor comparisons of phi, fiber, hopf-check and pmu-check;
    hopf and pmu contribute their own residuals, not their children's."""
    fiber = certify_fiber(ctx)
    parts = {
        "phi": certify_phi(ctx),
        "fiber": Certificate(
            {"transport": fiber.residuals["transport"]}, ctx.tol
        ),
    }
    if "hopf" in ctx.doc:
        parts["hopf"] = Certificate(certify_hopf(ctx).residuals, ctx.tol)
    if "pmu" in ctx.doc:
        parts["pmu"] = Certificate(certify_pmu(ctx).residuals, ctx.tol)
    return Certificate({}, ctx.tol, parts)


# check command -> (help, certifier)
CHECKS = {
    "gns": ("certify the cyclic representation of the bundled state",
            certify_gns),
    "base-check": ("certify base standardness and its conjugation",
                   certify_base),
    "factorize": ("certify every bundled factorization",
                  certify_factorizations),
    "rtp": ("build both relative squares and check their Grams",
            certify_squares),
    "phi": ("compare the two flavors by the canonical unitary", certify_phi),
    "fiber": ("fiber products on both flavors plus transport",
              certify_fiber),
    "morphism-check": ("both morphism criteria for the bundled map",
                       certify_morphism),
    "hopf-check": ("comultiplication axioms on both flavors", certify_hopf),
    "pmu-check": ("candidate operator axioms on both flavors", certify_pmu),
    "equiv-check": ("flavor-equivalence suite for the bundle",
                    certify_equivalence),
}


# generators: each returns the bundle document for its arguments

# groupoid generator command -> (FiniteGroupoid family, size option,
# metavar, help)
FAMILIES = {
    "gen-group": ("cyclic", "--order", "ORDER", "bundle for a cyclic group"),
    "gen-groupoid": ("pair", "--pair", "UNITS", "bundle for a pair groupoid"),
}


def require_at_least(*bounds):
    """FormatError naming the first (option, value, floor) whose value is
    given and under its floor."""
    for option, value, floor in bounds:
        if value is not None and value < floor:
            raise FormatError(f"{option} must be at least {floor}, got {value}")


def gen_groupoid(args, tol: Tolerance) -> dict:
    from .fixtures import FiniteGroupoid
    family, option = FAMILIES[args.command][:2]
    require_at_least((option, args.n, 1),
                     ("--hopf-perturb", args.hopf_perturb, 0))
    if not np.isfinite(args.angle):
        raise FormatError(f"--angle must be finite, got {args.angle}")
    source = {
        "family": family, "n": args.n, "variant": args.variant,
        "angle": args.angle, "hopf_perturb": args.hopf_perturb,
    }
    gpd = getattr(FiniteGroupoid, family)(args.n)
    return groupoid_bundle_json(gpd, source, tol)


def gen_random_base(args, tol: Tolerance) -> dict:
    try:
        blocks = [int(b) for b in args.blocks.split(",") if b.strip()]
    except ValueError:
        raise FormatError(f"--blocks must be integers, got {args.blocks!r}")
    if not blocks or any(b <= 0 for b in blocks):
        raise FormatError("--blocks needs positive sizes like 2,1")
    require_at_least(("--seed", args.seed, 0),
                     ("--mult-left", args.mult_left, 1),
                     ("--mult-right", args.mult_right, 1))
    source = {
        "family": "random", "blocks": blocks, "seed": args.seed,
        "mult_left": args.mult_left, "mult_right": args.mult_right,
    }
    return linked_bundle_json(source, tol)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tolerance", type=float, default=None,
        help="rank-cut epsilon (default 1e-9, or QGW_TOLERANCE)",
    )
    common.add_argument(
        "--out", default=None,
        help="write the JSON result to this file instead of only printing",
    )
    reader = argparse.ArgumentParser(add_help=False)
    reader.add_argument(
        "--in", dest="infile", required=True, help="input bundle file"
    )
    gen = argparse.ArgumentParser(add_help=False)
    gen.add_argument(
        "--variant", choices=("plain", "swap", "phase"), default="plain",
        help="operator written into the bundle's pmu section",
    )
    gen.add_argument(
        "--angle", type=float, default=1e-3,
        help="phase angle for --variant phase",
    )
    gen.add_argument(
        "--hopf-perturb", type=int, default=None, metavar="SEED",
        help="inject a seeded defect into both comultiplications",
    )
    parser = argparse.ArgumentParser(
        prog="qgw",
        description="construct and certify the workbench structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, option, metavar, blurb) in FAMILIES.items():
        p = sub.add_parser(name, parents=[common, gen], help=blurb)
        p.add_argument(option, dest="n", type=int, required=True,
                       metavar=metavar)
        p.set_defaults(generate=gen_groupoid)
    p = sub.add_parser("gen-random-base", parents=[common],
                       help="bundle for a seeded random linked pair")
    p.add_argument("--blocks", required=True, help="block sizes like 2,1")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mult-left", type=int, default=1)
    p.add_argument("--mult-right", type=int, default=1)
    p.set_defaults(generate=gen_random_base)
    for name, (blurb, _) in CHECKS.items():
        sub.add_parser(name, parents=[common, reader], help=blurb)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    payload = None
    try:
        tol = resolve_tolerance(args.tolerance)
        if args.command in CHECKS:
            certify = CHECKS[args.command][1]
            checks = checks_from_residuals(
                certify(BundleContext(args.infile, tol))
            )
        else:
            payload = serialize.canonical_dumps(args.generate(args, tol))
            checks = [Check("bundle_complete", 0.0, 1.0)]
        report = Report(args.command, checks, tol.eps)
    except FormatError as exc:
        report = Report(args.command, [], 0.0, error=str(exc))
    except QgwError as exc:
        report = Report(
            args.command, [], 0.0,
            error=f"{type(exc).__name__}: {exc}",
        )
    except MemoryError as exc:
        report = Report(args.command, [], 0.0,
                        error=f"MemoryError: {str(exc) or 'out of memory'}")
    report.timing_ms = (time.perf_counter() - started) * 1000.0
    out_path = getattr(args, "out", None)
    if out_path and report.verdict != "error":
        content = payload if payload is not None else report.to_json()
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            report = Report(args.command, [], 0.0,
                            error=f"--out {out_path}: {exc.strerror or exc}",
                            timing_ms=report.timing_ms)
        sys.stdout.write(report.render_text())
    elif payload is not None and report.verdict != "error":
        sys.stdout.write(payload)
    else:
        sys.stdout.write(report.render_text())
    return report.exit_code


def run():
    """main(), then exit without teardown: the process is over, and freeing
    its heap and numpy's modules costs 15-20 ms.  A raise exits normally."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
