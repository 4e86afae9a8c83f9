"""Command-line front end: every computation, machine-readable output.

Exit codes: 0 success, 1 usage error, 2 domain error (rank-deficient input,
unpointed list, ...), 3 internal error: a failed self-check or any other
exception, reported in one line without a traceback; 141, with no message,
when the reader of stdout has gone (what a shell reports for a tool killed
by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .abelian import FgGroup, GList
from .brionvergne import (box_deconvolution_check, box_delta_check, bv_count,
                          chamber_quasipolynomial, continuity_check,
                          partition_of_unity, wall_jump_check, walls)
from .corpus import CorpusLimits, corpus
from .errors import (DomainError, InternalError, NotInCone,
                     TorsionUnsupported)
from .geometry import (big_cells, bx_value, cells_at, lattice_points,
                       short_regular, tx_value, vpf_count, zonotope_hrep)
from .matroid import arithmetic_tutte, tutte
from .periodic import (PeriodicPoly, dm_basis, f_tilde, hilbert, l_map,
                       periodic_todd, pper_basis, pper_internal_basis)
from .polyspace import d_basis, p_basis
from .scalar import Cyclotomic, rat_str, s_vars
from .toric import vertices


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _exact(value, flag, length, integral=False) -> list:
    """``value`` (decoded JSON) as a list of ``length`` exact numbers.

    Entries are JSON numbers or strings such as "3/4"; with ``integral``
    they must be integers.  Anything else is a usage error.
    """
    if not isinstance(value, list) or len(value) != length:
        raise ValueError(f"--{flag} needs a JSON list of length {length}, "
                         f"got {json.dumps(value)}")
    try:
        out = [Fraction(str(v)) for v in value]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{flag} needs numbers, "
                         f"got {json.dumps(value)}") from None
    if not integral:
        return out
    if any(q.denominator != 1 for q in out):
        raise ValueError(f"--{flag} needs integers, got {json.dumps(value)}")
    return [int(q) for q in out]


def _parse_x(args) -> GList:
    rows = json.loads(args.x)
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
        raise ValueError(f"--x needs a JSON list of rows, got {args.x}")
    rows = [_exact(r, "x", len(rows[0]), integral=True) for r in rows]
    group = FgGroup.parse(args.group) if args.group else None
    return GList.from_rows(rows, group)


def _parse_vec(args, flag, x: GList, integral=False) -> list:
    """--flag as a point of the free part of x's group."""
    return _exact(json.loads(getattr(args, flag)), flag, x.dim, integral)


def _parse_element(args, x: GList):
    """--z as an element of x's group: free coordinates, then residues."""
    v = _exact(json.loads(args.z), "z", x.group.ncoords, integral=True)
    return x.group.element(v[:x.dim], v[x.dim:])


def _parse_periodic(args, x: GList) -> PeriodicPoly:
    """--p as a periodic polynomial in s1..sd, in the JSON form f-tilde
    prints."""
    try:
        return PeriodicPoly.from_json(s_vars(x.group.free_rank),
                                      json.loads(args.p))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"--p needs a list of {{character, poly}} "
                         f"objects, got {args.p} ({exc!r})") from None


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_tutte(args):
    t = tutte(_parse_x(args))
    _emit(args, {"tutte": t.to_json()}, str(t))


def _cmd_arith_tutte(args):
    t = arithmetic_tutte(_parse_x(args))
    _emit(args, {"arithmetic_tutte": t.to_json()}, str(t))


def _cmd_vertices(args):
    vs = vertices(_parse_x(args))
    payload = [{"character": v.character.to_json(),
                "x_phi": list(v.x_phi), "tors": v.tors_count} for v in vs]
    text = "\n".join(f"{v.character!r}  X_phi={list(v.x_phi)}" for v in vs)
    _emit(args, {"vertices": payload}, text)


def _cmd_p_basis(args):
    span = p_basis(_parse_x(args))
    _emit(args, {"basis": span.to_json()},
          "\n".join(repr(p) for p in span.basis))


def _cmd_d_basis(args):
    span = d_basis(_parse_x(args))
    _emit(args, {"basis": span.to_json()},
          "\n".join(repr(p) for p in span.basis))


def _cmd_pper_basis(args):
    basis = pper_basis(_parse_x(args))
    _emit(args, {"basis": [p.to_json() for p in basis],
                 "hilbert": hilbert(basis)},
          "\n".join(repr(p) for p in basis))


def _cmd_pper_internal(args):
    basis = pper_internal_basis(_parse_x(args))
    _emit(args, {"basis": [p.to_json() for p in basis],
                 "hilbert": hilbert(basis)},
          "\n".join(repr(p) for p in basis))


def _cmd_dm_basis(args):
    basis = dm_basis(_parse_x(args))
    _emit(args, {"basis": [f.to_json() for f in basis]},
          "\n".join(repr(f) for f in basis))


def _cmd_todd(args):
    x = _parse_x(args)
    z = _parse_element(args, x) if args.z else x.group.zero()
    series = periodic_todd(x, z, args.cap)
    payload = [{"character": c.to_json(), "series": s.body.to_json(),
                "cap": s.cap} for c, s in series.terms]
    text = "\n".join(f"{c!r}: {s.body!r} + O({s.cap + 1})"
                     for c, s in series.terms)
    _emit(args, {"todd": payload}, text)


def _cmd_f_tilde(args):
    x = _parse_x(args)
    ft = f_tilde(x, _parse_element(args, x))
    _emit(args, {"f_tilde": ft.to_json()}, repr(ft))


def _cmd_count(args):
    x = _parse_x(args)
    if x.group.invariants:
        # vpf_count reads only the free coordinates, and --u has no residues
        raise TorsionUnsupported(
            "lattice-point counts require a torsion-free group")
    c = vpf_count(x, _parse_vec(args, "u", x))
    _emit(args, {"count": c}, str(c))


def _cmd_bv_count(args):
    x = _parse_x(args)
    w = _parse_vec(args, "w", x) if args.w else None
    c = bv_count(x, _parse_element(args, x),
                 _parse_vec(args, "u", x, integral=True), w)
    _emit(args, {"bv_count": c}, str(c))


def _cmd_volume(args):
    x = _parse_x(args)
    v = tx_value(x, _parse_vec(args, "u", x))
    _emit(args, {"volume": rat_str(v)}, rat_str(v))


def _cmd_box(args):
    x = _parse_x(args)
    v = bx_value(x, _parse_vec(args, "u", x))
    _emit(args, {"box": rat_str(v)}, rat_str(v))


def _cmd_quasipoly(args):
    """The quasi-polynomial count (z = 0) of the chamber whose closure holds
    --u, or of the first chamber."""
    x = _parse_x(args)
    cells = big_cells(x)
    if args.u:
        u = _parse_vec(args, "u", x)
        cells = cells_at(x, cells, u)
        if not cells:
            raise NotInCone(f"u = [{', '.join(map(str, u))}] is outside "
                            f"cone(X)")
    cell = cells[0]
    q = chamber_quasipolynomial(x, cell)
    _emit(args, {"cell": cell.to_json(), "quasipolynomial": q.to_json()},
          f"cell {cell.to_json()['sample']}: {q!r}")


def _cmd_cells(args):
    cells = big_cells(_parse_x(args))
    _emit(args, {"cells": [c.to_json() for c in cells]},
          "\n".join(str(c.to_json()["sample"]) for c in cells))


def _cmd_zonotope(args):
    x = _parse_x(args)
    h = zonotope_hrep(x)
    interior = lattice_points(x, "interior")
    payload = {"hrep": h.to_json(),
               "interior_points": [list(p) for p in interior],
               "volume": arithmetic_tutte(x).evaluate(1, 1)}
    _emit(args, payload,
          f"facets: {len(h.b)}, interior lattice points: {len(interior)}, "
          f"volume: {payload['volume']}")


def _cmd_l_map(args):
    x = _parse_x(args)
    if args.p:
        p = _parse_periodic(args, x)
    elif args.z:
        p = f_tilde(x, _parse_element(args, x))
    else:
        raise ValueError("l-map needs --z or --p")
    w = _parse_vec(args, "w", x) if args.w else short_regular(x)
    lc = l_map(x, p, w)
    text = ", ".join(f"{list(pt)}: {c!r}"
                     for pt, c in zip(lc.support, lc.coeffs))
    _emit(args, {"l_map": lc.to_json()}, text)


def _cmd_check_continuity(args):
    x = _parse_x(args)
    wl = walls(x)
    internal = pper_internal_basis(x)
    report = {"identity": "internal space = continuous operators",
              "walls": len(wl), "status": "pass", "counterexample": None}
    for p in internal:
        if not continuity_check(x, p, wall_list=wl):
            report["status"] = "fail"
            report["counterexample"] = p.to_json()
            break
    _emit(args, report, f"continuity: {report['status']}")


def _cmd_check_unity(args):
    x = _parse_x(args)
    total = partition_of_unity(x)
    ok = total == PeriodicPoly.one(x)
    report = {"identity": "sum B_X(z) f_z = 1", "status":
              "pass" if ok else "fail",
              "value": total.to_json()}
    _emit(args, report, f"partition of unity: {report['status']}")


def _cmd_check_delta(args):
    x = _parse_x(args)
    w = _parse_vec(args, "w", x) if args.w else None
    table = box_delta_check(x, w)
    bad = None
    for z, res in table.items():
        for lam, val in res.items():
            expect = Cyclotomic.one() if lam == z else Cyclotomic.zero()
            if val != expect:
                bad = {"z": list(z), "lambda": list(lam), "value": val.to_json()}
                break
        if bad:
            break
    report = {"identity": "f_z(D)B_X = delta_z", "points": len(table),
              "status": "fail" if bad else "pass", "counterexample": bad}
    _emit(args, report, f"delta interpolation: {report['status']}")


def _cmd_check_deconv(args):
    x = _parse_x(args)
    w = _parse_vec(args, "w", x) if args.w else None
    res = box_deconvolution_check(x, w)
    bad = None
    for lam, val in res.items():
        expect = Cyclotomic.one() if not any(lam) else Cyclotomic.zero()
        if val != expect:
            bad = {"lambda": list(lam), "value": val.to_json()}
            break
    report = {"identity": "ToddB(X)(D)B_X = delta_0",
              "points": len(res),
              "status": "fail" if bad else "pass", "counterexample": bad}
    _emit(args, report, f"box deconvolution: {report['status']}")


def _cmd_wall_jump(args):
    x = _parse_x(args)
    results = []
    ok = True
    for wall in walls(x):
        jump, diff, lead = wall_jump_check(x, wall)
        good = jump == diff and lead
        ok = ok and good
        results.append({"normal": list(wall.normal), "ray": list(wall.ray),
                        "jump": jump.to_json(),
                        "matches_pieces": jump == diff,
                        "leading_structure": lead})
    report = {"identity": "wall crossing residue", "walls": results,
              "status": "pass" if ok else "fail"}
    text = "\n".join(
        f"wall ray {r['ray']}: jump matches pieces: {r['matches_pieces']}, "
        f"leading structure: {r['leading_structure']}" for r in results)
    _emit(args, report, text)


def _cmd_corpus(args):
    limits = CorpusLimits(require_pointed=True)
    if args.d is not None:
        limits.max_dim = args.d
    if args.n is not None:
        limits.max_len = args.n
    if not 1 <= limits.max_dim <= limits.max_len:
        raise ValueError(f"corpus needs --d >= 1 and --n >= --d, got --d "
                         f"{limits.max_dim} and --n {limits.max_len}")
    if args.count < 0:
        raise ValueError(f"corpus needs --count >= 0, got {args.count}")
    lists = corpus(args.seed, limits, count=args.count)
    rotation = ("arith-tutte", "pper-basis", "zonotope", "tutte", "vertices")
    for k, x in enumerate(lists):
        rows = [[e.lift()[i] for e in x.elems]
                for i in range(x.group.ncoords)]
        job = {"command": rotation[k % len(rotation)], "x": rows,
               "group": x.group.spec_string(), "json": True}
        print(json.dumps(job, sort_keys=True))


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

_COMMANDS = {
    "tutte": (_cmd_tutte, ()),
    "arith-tutte": (_cmd_arith_tutte, ()),
    "vertices": (_cmd_vertices, ()),
    "p-basis": (_cmd_p_basis, ()),
    "d-basis": (_cmd_d_basis, ()),
    "pper-basis": (_cmd_pper_basis, ()),
    "pper-internal": (_cmd_pper_internal, ()),
    "dm-basis": (_cmd_dm_basis, ()),
    "todd": (_cmd_todd, ("z", "cap")),
    "f-tilde": (_cmd_f_tilde, ("z!",)),
    "count": (_cmd_count, ("u!",)),
    "bv-count": (_cmd_bv_count, ("z!", "u!", "w")),
    "volume": (_cmd_volume, ("u!",)),
    "box": (_cmd_box, ("u!",)),
    "quasipoly": (_cmd_quasipoly, ("u",)),
    "cells": (_cmd_cells, ()),
    "zonotope": (_cmd_zonotope, ()),
    "l-map": (_cmd_l_map, ("z", "w", "p")),
    "check-continuity": (_cmd_check_continuity, ()),
    "check-unity": (_cmd_check_unity, ()),
    "check-delta": (_cmd_check_delta, ("w",)),
    "wall-jump": (_cmd_wall_jump, ()),
    "check-deconv": (_cmd_check_deconv, ("w",)),
}


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves no state
    on it."""
    parser = _Parser(prog="zonotopal",
                     description="exact zonotopal algebra calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, extras) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--x", required=True,
                       help="JSON row matrix; columns are list elements")
        p.add_argument("--group", default=None,
                       help='e.g. "Z^2" or "Z + Z/2"')
        p.add_argument("--json", action="store_true")
        for extra in extras:
            flag = extra.rstrip("!")
            p.add_argument(f"--{flag}", required=extra.endswith("!"),
                           default=None, type=int if flag == "cap" else str)
    cp = sub.add_parser("corpus")
    cp.add_argument("--seed", type=int, default=1)
    cp.add_argument("--count", type=int, default=50)
    cp.add_argument("--d", type=int, default=None)
    cp.add_argument("--n", type=int, default=None)
    cp.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "corpus":
            _cmd_corpus(args)
        else:
            _COMMANDS[args.command][0](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # an untyped failure is a bug: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
