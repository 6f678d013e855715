"""Command-line front end.

Generates fixture bundles and runs the certification commands on them.  A
bundle is one JSON document whose sections reference each other by name.
A check command hands one lazily built bundle context to its certifier and
prints the certificate as a check table.  Exit codes: 0 when every check
passes, 1 when one fails, 2 on malformed input.
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
from .cbase import base_equivalence, cbase_from_state, \
    modular_conjugation_of_base
from .errors import FormatError, PreconditionError, QgwError
from .fiber import fiber_classical, fiber_spatial, is_morphism, \
    transported_match
from .fixtures import FiniteGroupoid, linked_bundle
from .gns import gns
from .hopf import groupoid_hopf, hopf_equivalence, perturbed_hopf
from .linalg import Tolerance, dagger, mat_norm
from .pmu import PmuCandidate, groupoid_pmu, phase_perturbed_candidate, \
    pmu_equivalence, swapped_candidate
from .report import Certificate, Check, Report, checks_from_residuals
from .rtensor import ket_factorization, phi_unitary, rtp_cstar, rtp_state
from .staralg import algebra_from_generators


def resolve_tolerance(value: float | None) -> Tolerance:
    if value is None:
        env = os.environ.get("QGW_TOLERANCE")
        value = float(env) if env else 1e-9
    if value <= 0:
        raise FormatError("tolerance must be positive")
    return Tolerance(eps=value)


def load_bundle(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: malformed JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from None
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from None
    return serialize.check_bundle(doc, path)


# bundle assembly


def groupoid_bundle_json(gpd: FiniteGroupoid, source: dict,
                         tol: Tolerance) -> dict:
    hopf_data = groupoid_hopf(gpd, tol=tol)
    if source["hopf_perturb"] is not None:
        hopf_data = perturbed_hopf(hopf_data, seed=source["hopf_perturb"])
    pmu_data = groupoid_pmu(gpd, tol=tol)
    cand = pmu_data["candidate"]
    if source["variant"] == "swap":
        cand = swapped_candidate(pmu_data)
    elif source["variant"] == "phase":
        cand = phase_perturbed_candidate(pmu_data, source["angle"])
    triple = hopf_data["triple"]
    arrow_alg = hopf_data["algebra"]
    out = serialize.bundle_skeleton("groupoid", source, tol)
    out["state"] = serialize.encode_state(triple.state)
    out["arrow_algebra"] = serialize.encode_algebra(arrow_alg)
    out["reps"] = {
        "rho": serialize.encode_stack(hopf_data["rho"]),
        "sigma": serialize.encode_stack(hopf_data["sigma"]),
        "sigma_hat": serialize.encode_stack(hopf_data["source_stack"]),
    }
    out["factorizations"] = {
        "alpha": serialize.encode_factorization(hopf_data["alpha"], "state"),
        "beta": serialize.encode_factorization(hopf_data["beta"], "state"),
        "beta_hat": serialize.encode_factorization(
            pmu_data["beta_hat"], "state"
        ),
        "alpha_flipped": serialize.encode_factorization(
            pmu_data["alpha_flipped"], "state"
        ),
    }
    basis = arrow_alg.basis()
    images_state = [hopf_data["delta_state"](b) for b in basis]
    images_cstar = [hopf_data["delta_cstar"](b) for b in basis]
    out["hopf"] = {
        "state": {
            "side": "state",
            "A": "arrow_algebra",
            "Delta": serialize.encode_morphism(
                images_state, "arrow_algebra", "fiber-state"
            ),
            "legs": {"rho": "reps.rho", "sigma": "reps.sigma"},
        },
        "operator": {
            "side": "operator",
            "A": "arrow_algebra",
            "Delta": serialize.encode_morphism(
                images_cstar, "arrow_algebra", "fiber-operator"
            ),
            "legs": {
                "alpha": "factorizations.alpha",
                "beta": "factorizations.beta",
            },
        },
    }
    out["pmu"] = {
        "base": "state",
        "reps": {
            "rho": "reps.rho",
            "sigma": "reps.sigma",
            "sigma_hat": "reps.sigma_hat",
        },
        "V": serialize.encode_matrix(cand.v_matrix),
        "coordinate_maps": {
            "source_classes": serialize.encode_matrix(
                cand.source_space.class_map
            ),
            "target_sections": serialize.encode_matrix(
                cand.target_space.section
            ),
        },
    }
    return out


def linked_bundle_json(source: dict, tol: Tolerance) -> dict:
    data = linked_bundle(source["blocks"], source["mult_left"],
                         source["mult_right"], source["seed"], tol)
    triple = data["triple"]
    out = serialize.bundle_skeleton("linked", source, tol)
    out["state"] = serialize.encode_state(triple.state)
    out["base"] = serialize.encode_base(data["base"])
    out["reps"] = {
        "rho": serialize.encode_stack(data["rho"]),
        "sigma": serialize.encode_stack(data["sigma"]),
    }
    out["factorizations"] = {
        "alpha": serialize.encode_factorization(data["alpha"], "state"),
        "beta": serialize.encode_factorization(data["beta"], "state"),
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
    def triple_base(self):
        """The base carried by the GNS triple; the squares and the pmu
        factorizations live over it."""
        return cbase_from_state(self.triple)

    @property
    @kept
    def base(self):
        """The bundle's base section, or the triple's base without one."""
        if "base" not in self.doc:
            return self.triple_base
        return serialize.decode_base(self.section("base"), "base", self.tol)

    @kept
    def rep(self, name: str) -> np.ndarray:
        return serialize.decode_stack(self.entry("reps", name), f"reps.{name}")

    @kept
    def factorization(self, name: str):
        """The named factorization over the triple's base, certified."""
        return serialize.decode_factorization(
            self.entry("factorizations", name), self.triple_base,
            f"factorizations.{name}", self.tol,
        )

    @property
    @kept
    def squares(self):
        return load_squares(self)

    @property
    @kept
    def phi(self):
        return phi_unitary(*self.squares)

    @property
    @kept
    def arrow(self):
        return serialize.decode_algebra(
            self.section("arrow_algebra"), "arrow_algebra", self.tol
        )

    @kept
    def delta(self, flavor: str):
        """Comultiplication of the hopf section's "state" or "operator"
        flavor, as a callable on the arrow algebra."""
        return serialize.decode_morphism(
            self.entry("hopf", flavor, "Delta"), np.stack(self.arrow.basis()),
            f"hopf.{flavor}.Delta",
        )

    @property
    @kept
    def candidate(self) -> PmuCandidate:
        def matrix(*path):
            return serialize.decode_matrix(
                self.entry("pmu", *path), ".".join(("pmu",) + path)
            )

        v_hat = matrix("V")
        src_classes = matrix("coordinate_maps", "source_classes")
        tgt_sections = matrix("coordinate_maps", "target_sections")
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
    vn = rtp_state(ctx.triple, ctx.rep("rho"), ctx.rep("sigma"), tol=ctx.tol)
    cs = rtp_cstar(ctx.factorization("alpha"), ctx.factorization("beta"),
                   tol=ctx.tol)
    return vn, cs


# certifiers: each maps a bundle context to the certificate of one command


def certify_gns(ctx: BundleContext) -> Certificate:
    return Certificate(ctx.triple.certificates(), ctx.tol)


def certify_base(ctx: BundleContext) -> Certificate:
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
        "state_gram_hermitian": mat_norm(vn.gram - dagger(vn.gram)),
        "operator_gram_hermitian": mat_norm(cs.gram - dagger(cs.gram)),
        "state_gram_psd": _psd_defect(vn.gram),
        "operator_gram_psd": _psd_defect(cs.gram),
    }, ctx.tol)


def _psd_defect(gram: np.ndarray) -> float:
    evs = np.linalg.eigvalsh(0.5 * (gram + dagger(gram)))
    if evs.size == 0:
        return 0.0
    scale = max(1.0, float(evs[-1]))
    return max(0.0, -float(evs[0])) / scale


def certify_phi(ctx: BundleContext) -> Certificate:
    return ctx.phi[1]


def certify_fiber(ctx: BundleContext) -> Certificate:
    vn, cs = ctx.squares
    rho, sigma = ctx.rep("rho"), ctx.rep("sigma")
    a = algebra_from_generators(rho.shape[1], rho, ctx.tol)
    b = algebra_from_generators(sigma.shape[1], sigma, ctx.tol)
    classical, classical_cert = fiber_classical(vn, a, b)
    spatial, spatial_cert = fiber_spatial(cs, a, b)
    _, transport = transported_match(
        ctx.phi[0], classical, spatial, ctx.tol.check
    )
    return Certificate(
        {"dimension_defect": float(abs(classical.dim - spatial.dim)),
         "transport": transport},
        ctx.tol, {"classical": classical_cert, "spatial": spatial_cert},
    )


def certify_morphism(ctx: BundleContext) -> Certificate:
    _, cs = ctx.squares
    arrow = ctx.arrow
    delta = ctx.delta("operator")
    alpha = ctx.factorization("alpha")
    fp, _ = fiber_spatial(cs, arrow, arrow)
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
    vn, cs = ctx.squares
    return hopf_equivalence(
        vn, cs, ctx.arrow, ctx.delta("state"), ctx.delta("operator"),
        ctx.phi[0],
    )


def certify_pmu(ctx: BundleContext) -> Certificate:
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


def gen_groupoid(args, tol: Tolerance) -> dict:
    family = FAMILIES[args.command][0]
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
    report.timing_ms = (time.perf_counter() - started) * 1000.0
    out_path = getattr(args, "out", None)
    if out_path and report.verdict != "error":
        content = payload if payload is not None else report.to_json()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(content)
        sys.stdout.write(report.render_text())
    elif payload is not None and report.verdict != "error":
        sys.stdout.write(payload)
    else:
        sys.stdout.write(report.render_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
