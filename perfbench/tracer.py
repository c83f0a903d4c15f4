"""Outside-in tracing of npk from the benchmark's own files.

``Tracer.install()`` replaces every public function of every npk module
(and a few hot ``Polynomial`` / ``MultivectorField`` methods) with a
wrapper that records a span: (span id, name, start, end, parent span id,
op id).  The replacement is made under every name that refers to the
original in any npk module, so ``from .grassmann import sharp_profile``
in ``poisson`` is traced too.  Spans stay in memory as flat integer
arrays; self times are computed from them afterwards.  A handful of
hooks add work counts at the same boundaries.  ``uninstall()`` restores
every original, so untraced runs execute npk exactly as shipped.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import pkgutil
import time
from array import array
from collections import Counter

# per-element helpers run once per term pair inside the kernels; a span
# there would cost more than the work it measures
_SKIP = {"iter_blades", "merge_blades", "sort_to_blade", "shuffle_sign"}
_SKIP_MODULES = {"npk.suites"}

_METHODS = {
    ("npk.polynomial", "Polynomial"): {
        "__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
        "__neg__": "neg", "derivative": "derivative", "evaluate": "evaluate",
    },
    ("npk.fields", "MultivectorField"): {"component": "component"},
}

_FIELDS = 6  # span id, name id, start, end, parent span id, op id


def npk_modules():
    import npk
    mods = [npk]
    for info in pkgutil.iter_modules(npk.__path__):
        mods.append(importlib.import_module(f"npk.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.records = array("q")
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._stack = [(-1, -1)]
        self._op = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._op_span = None
        self._sharp_nid = -2

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, hook=None):
        nid = self._nid(name)
        ids, stack, op, extend, clock = self._ids, self._stack, self._op, self.records.extend, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1]
            stack.append((idx, nid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extend((idx, nid, start, end, parent[0], op[0]))
            if hook is not None:
                hook(args, kwargs, result, parent[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as one op: a root span named ``op``."""
        if self._op_span is None:
            self._op_span = self._wrap("op", lambda f, *a: f(*a))
        self._op[0] = op_id
        try:
            return self._op_span(fn, *args)
        finally:
            self._op[0] = -1

    # -- hooks: counts at the same boundaries --------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def rref(args, kwargs, result, parent):
            rows = args[0]
            width = args[1] if len(args) > 1 else kwargs.get("width")
            if width is None:
                width = len(rows[0]) if rows else 0
            counts["linalg.rref.rows_in"] += len(rows)
            counts["linalg.rref.entries"] += len(rows) * width
            counts["linalg.rref.pivots"] += len(result[1])

        def rank_kernel_image(args, kwargs, result, parent):
            if parent == self._sharp_nid:
                counts["grassmann.sharp_profile.rows"] += len(args[0])

        def mul(args, kwargs, result, parent):
            a, b = args
            other = len(b.terms) if hasattr(b, "terms") else 1
            counts["polynomial.mul.term_products"] += len(a.terms) * other

        def wedge_terms(args, kwargs, result, parent):
            counts["exterior.wedge_terms.term_pairs"] += len(args[0]) * len(args[1])

        def sample_points(args, kwargs, result, parent):
            counts["poisson.sample_points.count"] += len(result)

        def jacobi_defect(args, kwargs, result, parent):
            counts["fields.jacobi_defect.nonzero"] += bool(result)

        return {
            "linalg.rref": rref, "linalg.rank_kernel_image": rank_kernel_image,
            "polynomial.mul": mul, "exterior.wedge_terms": wedge_terms,
            "poisson.default_sample_points": sample_points,
            "fields.jacobi_defect": jacobi_defect,
        }

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        mods = npk_modules()
        wrappers: dict[int, object] = {}
        for mod in mods:
            if mod.__name__ in _SKIP_MODULES:
                continue
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in _SKIP):
                    name = f"{short}.{attr}"
                    wrapper = self._wrap(name, obj, hooks.get(name))
                    if name == "linalg.rref":
                        wrapper = _rows_as_list(wrapper)
                    wrappers[id(obj)] = wrapper
        self._sharp_nid = self.names.index("grassmann.sharp_profile")
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for (modname, clsname), methods in _METHODS.items():
            cls = getattr(importlib.import_module(modname), clsname)
            made: dict[str, object] = {}
            for attr, short in methods.items():
                name = f"{modname.rsplit('.', 1)[-1]}.{short}"
                orig = cls.__dict__[attr]
                key = (id(orig), name)
                if key not in made:
                    made[key] = self._wrap(name, orig, hooks.get(name))
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, made[key])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------------

    def summary(self) -> tuple[dict, dict, dict]:
        """Per-name self time (ns), per-name span count, ancestor-derived counts."""
        rec = self.records
        size = len(rec) // _FIELDS  # span ids are 0..size-1: every span entered also exits
        child = array("q", bytes(8 * size))
        nid_of = array("q", bytes(8 * size))
        parent_of = array("q", bytes(8 * size))
        for i in range(0, len(rec), _FIELDS):
            idx, nid, start, end, parent = rec[i], rec[i + 1], rec[i + 2], rec[i + 3], rec[i + 4]
            nid_of[idx] = nid
            parent_of[idx] = parent
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i in range(0, len(rec), _FIELDS):
            idx, nid, start, end = rec[i], rec[i + 1], rec[i + 2], rec[i + 3]
            name = self.names[nid]
            self_ns[name] += end - start - child[idx]
            calls[name] += 1
        # rref calls made (at any depth) on behalf of sharp_profile
        sharp_ids = {i for i, n in enumerate(self.names) if n == "grassmann.sharp_profile"}
        rref_ids = {i for i, n in enumerate(self.names) if n == "linalg.rref"}
        derived = Counter()
        for i in range(0, len(rec), _FIELDS):
            if rec[i + 1] in rref_ids:
                p = rec[i + 4]
                while p >= 0:
                    if nid_of[p] in sharp_ids:
                        derived["linalg.rref.under_sharp_profile"] += 1
                        break
                    p = parent_of[p]
        return dict(self_ns), dict(calls), dict(derived)


def _rows_as_list(traced):
    # rref accepts any iterable of rows; hand the traced call a list so its
    # hook can count rows without consuming a generator
    def rref(rows, *args, **kwargs):
        return traced(rows if isinstance(rows, list) else list(rows), *args, **kwargs)

    rref.__wrapped__ = traced
    return rref
