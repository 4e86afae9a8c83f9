"""Outside-in layer tracer for `zonotopal`.

The benchmark wraps the public entry points of each module from here;
nothing under `src/` knows about it.  A function bound by `from ... import`
lives in several namespaces, so `enable` replaces the function object in
every `zonotopal.*` module namespace, class body and default-argument tuple
that holds it, and `check_complete` fails if any other reference to an
original survives.  Self time comes from a span stack: a span's duration
minus the durations of the spans it directly encloses.
"""

from collections import Counter
import gc
import importlib
import sys
import time
import types

# module -> public entry points (Class.method for methods)
TARGETS = {
    "scalar": ("MPoly.mul_capped", "TruncatedSeries.inverse", "todd_factor",
               "exp_series", "divide_by_linear"),
    "linalg": ("rref", "solve", "det", "rank", "nullspace"),
    "abelian": ("rank_of", "multiplicity", "snf"),
    "matroid": ("arithmetic_tutte", "tutte", "bases", "corank_one_flats",
                "cocircuits", "external_activity"),
    "toric": ("vertices",),
    "polyspace": ("PsiProjector.__init__", "PsiProjector.project_poly",
                  "d_basis", "p_basis"),
    "periodic": ("f_tilde", "periodic_todd", "pper_basis"),
    "geometry": ("polytope_volume", "bx_value", "tx_value", "in_cone",
                 "lattice_points", "big_cells", "local_piece", "vpf_count"),
    "brionvergne": ("bv_count", "apply_periodic", "partition_of_unity",
                    "box_delta_check"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)
GAUGES = ("scalar.series_cap_max", "linalg.rref.max_cells", "toric.max_order")


def _list_key(x):
    return (x.group, x.elems)


class Tracer:
    """Span stack, per-span call counts and self time, gauges and the
    distinct inputs behind the waste ratios."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.gauges = Counter()
        self.psi_lists = set()
        self.ft_inputs = set()
        self.top_s = 0.0
        self._stack = []
        self._sites = []
        self._wrappers = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn):
        """A wrapper that records `name` as a span around each call of fn."""
        module = name.split(".", 1)[0]
        probe = _PROBES.get(name)
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_s += dur
            if probe:
                probe(self, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- patching ------------------------------------------------------------

    def _collect_sites(self):
        originals = {}
        for mod, names in TARGETS.items():
            module = importlib.import_module(f"zonotopal.{mod}")
            for fname in names:
                owner, _, attr = fname.rpartition(".")
                holder = getattr(module, owner) if owner else module
                fn = vars(holder)[attr]
                originals[id(fn)] = (fn, self.wrap(f"{mod}.{fname}", fn))
        for module in _zonotopal_modules():
            namespaces = [module]
            namespaces += [v for v in vars(module).values()
                           if isinstance(v, type)
                           and v.__module__ == module.__name__]
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if id(val) in originals:
                        self._sites.append((ns, key, *originals[id(val)]))
                    if isinstance(val, types.FunctionType) and val.__defaults__:
                        if any(id(d) in originals for d in val.__defaults__):
                            self._sites.append((val, "__defaults__", val.__defaults__,
                                                tuple(originals.get(id(d), (d, d))[1]
                                                      for d in val.__defaults__)))
        self._wrappers = [w for _, w in originals.values()]

    def enable(self):
        if not self._sites:
            self._collect_sites()
        for holder, key, _, wrapped in self._sites:
            setattr(holder, key, wrapped)

    def disable(self):
        for holder, key, original, _ in self._sites:
            setattr(holder, key, original)

    def check_complete(self):
        """While enabled, no reference to an original may remain outside the
        tracer: one would be a call path that escapes its span."""
        ours = {id(s) for s in self._sites}
        ours.update(id(s[2]) for s in self._sites if s[1] == "__defaults__")
        for w in self._wrappers:
            ours.update(id(c) for c in w.__closure__)
        for s in self._sites:
            if s[1] == "__defaults__":
                continue
            for ref in gc.get_referrers(s[2]):
                if id(ref) not in ours and not isinstance(ref, types.FrameType):
                    raise RuntimeError(
                        f"{s[2].__module__}.{s[2].__qualname__} is still "
                        f"reachable through a {type(ref).__name__}")

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in GAUGES:
            out[name] = (self.gauges[name], "count")
        out["toric.vertices.per_f_tilde"] = (
            _ratio(self.calls["toric.vertices"], self.calls["periodic.f_tilde"]), "ratio")
        out["polyspace.PsiProjector.builds_per_list"] = (
            _ratio(self.calls["polyspace.PsiProjector.__init__"], len(self.psi_lists)),
            "ratio")
        out["periodic.f_tilde.per_distinct_xz"] = (
            _ratio(self.calls["periodic.f_tilde"], len(self.ft_inputs)), "ratio")
        for mod in TARGETS:
            out[f"{mod}.errors"] = (self.errors[mod], "count")
        return out


def _ratio(a, b):
    return a / b if b else 0.0


def _zonotopal_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "zonotopal" or name.startswith("zonotopal."))]


def _gauge(tracer, name, value):
    if value > tracer.gauges[name]:
        tracer.gauges[name] = value


def _cap_arg(tracer, args, result):
    _gauge(tracer, "scalar.series_cap_max", result.cap)


def _rref_shape(tracer, args, result):
    m = args[0]
    _gauge(tracer, "linalg.rref.max_cells", len(m) * (len(m[0]) if m else 0))


def _vertex_order(tracer, args, result):
    for v in result:
        _gauge(tracer, "toric.max_order", v.character.order())


def _psi_list(tracer, args, result):
    tracer.psi_lists.add(_list_key(args[1]))


def _ft_input(tracer, args, result):
    tracer.ft_inputs.add((_list_key(args[0]), args[1]))


_PROBES = {
    "scalar.todd_factor": _cap_arg,
    "scalar.exp_series": _cap_arg,
    "scalar.TruncatedSeries.inverse": _cap_arg,
    "linalg.rref": _rref_shape,
    "toric.vertices": _vertex_order,
    "polyspace.PsiProjector.__init__": _psi_list,
    "periodic.f_tilde": _ft_input,
}
