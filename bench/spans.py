"""Per-layer spans installed from outside the library.

Each of the twelve gauge5 modules is a layer. `Tracer.install` wraps every
public module-level function and every public method (plus `__post_init__`,
which counts constructions) of the classes a module defines, then rebinds
each name everywhere it is bound: modules import names directly (for
example `classification` binds `divisors` and `exponents` binds
`ord_partial1_tilde`), so wrapping only the defining module would miss
those calls. `uninstall` restores every binding.

A span records name, start, end, parent span and query id. Aggregates are
kept online per span name; the spans themselves are kept in memory only up
to a cap (one classify_moore call at c = 1e6 makes a million gcd_class
spans) and written out when the run ends. A span's self time is its
duration minus the durations of its direct children, which in this
single-threaded library is exactly the part of its interval its children
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time

LAYERS = (
    "arith", "abelian", "localization", "lie", "manifold", "spaces",
    "decomposition", "classification", "exponents", "bott", "rational", "cli",
)
LOOKUPS = ("lie.ord_partial1_tilde", "lie.catalog_order", "lie.r_of", "lie.exceptional_rows")
ROUTES = ("exponents.exp_bound_regular", "exponents.exp_bound_theriault")
# span name -> ancestor span name: count calls made while that ancestor is open
NESTED = {
    "arith.is_prime": "localization.Localization.inverts",
    "spaces.SpaceExpr.normalize": "bott.stable_pi_gauge",
}
SPAN_CAP = 20_000


class _Rows(tuple):
    """The catalog tuple, counting every row anyone iterates over."""

    def __iter__(self):
        sink = self.sink
        for row in tuple.__iter__(self):
            sink.rows_scanned += 1
            yield row


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, child time, name, sid]
        # name -> [calls, total s, self s, errors leaving the layer, max s, raised]
        self.stats: dict[str, list] = {}
        self.nested = dict.fromkeys(NESTED, 0)
        self.spans: list[tuple] = []
        self.qid = 0
        # self time per layer of the query in progress; the harness reads and
        # resets it after each query (see `take_query_self`)
        self.query_self = dict.fromkeys(LAYERS, 0.0)
        self.rows_scanned = 0
        self.rows_matched = 0
        self.members_built = 0
        self.members_shown = 0
        self.atoms_in = 0
        self.atoms_out = 0
        self._sids = itertools.count()
        self._patches: list[tuple] = []
        self._wrapped: dict[int, tuple] = {}
        self._catalog = None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, layer: str, fn, after=None):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0.0, 0])
        stack, spans, sids = self.stack, self.spans, self._sids
        ancestor = NESTED.get(name)
        perf = time.perf_counter
        tracer = self
        query_self = self.query_self

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            if ancestor is not None and any(f[2] == ancestor for f in stack):
                tracer.nested[name] += 1
            frame = [layer, 0.0, name, next(sids)]
            stack.append(frame)
            failed = True
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                rec[0] += 1
                rec[1] += d
                rec[2] += d - frame[1]
                query_self[layer] += d - frame[1]
                if d > rec[4]:
                    rec[4] = d
                if parent is not None:
                    parent[1] += d
                if failed:
                    rec[5] += 1
                    if parent is None or parent[0] != layer:
                        rec[3] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((frame[3], parent[3] if parent else -1, name, t0, t1, tracer.qid))
            if after is not None:
                return after(args, result)
            return result

        return functools.update_wrapper(span, fn)

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def install(self) -> None:
        hooks = {
            "lie.load_catalog": self._count_rows,
            "classification.classify_moore": self._count_members,
            "spaces.SpaceExpr.normalize": self._count_atoms,
        }
        hooks.update(dict.fromkeys(LOOKUPS, self._count_matched))
        for layer in LAYERS:
            mod = importlib.import_module(f"gauge5.{layer}")
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    name = f"{layer}.{attr}"
                    self._wrapped[id(val)] = (val, self.wrap(name, layer, val, hooks.get(name)))
                elif inspect.isclass(val):
                    self._wrap_class(layer, val, hooks)
        for modname, mod in list(sys.modules.items()):
            if modname != "gauge5" and not modname.startswith("gauge5."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def _wrap_class(self, layer: str, cls, hooks) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, layer, val.__func__)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self.wrap(name, layer, val, hooks.get(name)))

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._patches):
            setattr(obj, attr, old)
        self._patches.clear()
        self._wrapped.clear()

    # -- counters fed by span results ------------------------------------------

    def _count_rows(self, args, rows):
        self._catalog = rows
        counted = _Rows(rows)
        counted.sink = self
        return counted

    def _count_matched(self, args, result):
        G = args[0]
        if isinstance(G, str):  # exceptional_rows(family)
            key, n = G, None
        elif G.family == "Spin":
            key, n = ("SpinOdd" if G.n % 2 else "SpinEven"), G.n // 2
        else:
            key, n = G.family, G.n
        self.rows_matched += sum(
            1 for r in self._catalog if r.family_key == key and (r.param is None or r.param == n)
        )
        return result

    def _count_members(self, args, report):
        for _, members in report.classes:
            self.members_built += len(members)
            self.members_shown += min(8, len(members))
        return report

    def _count_atoms(self, args, expr):
        self.atoms_in += len(args[0].atoms)
        self.atoms_out += len(expr.atoms)
        return expr

    def take_query_self(self) -> tuple[float, ...]:
        """Self seconds per layer (in LAYERS order) since the last call."""
        out = tuple(self.query_self.values())
        for layer in LAYERS:
            self.query_self[layer] = 0.0
        return out

    # -- results ---------------------------------------------------------------

    def _stat(self, name: str, field: int):
        return self.stats.get(name, [0, 0.0, 0.0, 0, 0.0, 0])[field]

    def layer_metrics(self, layers=LAYERS) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in layers:
            recs = [r for n, r in self.stats.items() if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(r[0] for r in recs)
            out[f"{layer}.self_ms"] = 1e3 * sum(r[2] for r in recs)
            out[f"{layer}.errors"] = sum(r[3] for r in recs)
        return out

    def detail_metrics(self) -> dict[str, float]:
        s = self._stat
        inverts = s("localization.Localization.inverts", 0)
        stable = s("bott.stable_pi_gauge", 0)
        scanned = self.rows_scanned
        return {
            "arith.factorize.calls": s("arith.factorize", 0),
            "arith.factorize.self_ms": 1e3 * s("arith.factorize", 2),
            "arith.factorize.max_us": 1e6 * s("arith.factorize", 4),
            "arith.is_prime.calls": s("arith.is_prime", 0),
            "arith.is_prime.self_ms": 1e3 * s("arith.is_prime", 2),
            "abelian.groups_built": s("abelian.FGAbelianGroup.__post_init__", 0),
            "localization.inverts.calls": inverts,
            "localization.is_prime_per_inverts":
                self.nested["arith.is_prime"] / inverts if inverts else 0.0,
            "lie.lookups": sum(s(n, 0) for n in LOOKUPS),
            "lie.rows_scanned": scanned,
            "lie.rows_matched_ratio": self.rows_matched / max(scanned, self.rows_matched, 1),
            "spaces.normalize.calls": s("spaces.SpaceExpr.normalize", 0),
            "spaces.normalize.self_ms": 1e3 * s("spaces.SpaceExpr.normalize", 2),
            "spaces.atoms_in": self.atoms_in,
            "spaces.atoms_out": self.atoms_out,
            "manifold.homology.calls": s("manifold.homology", 0),
            "classification.classify.calls": s("classification.classify_moore", 0),
            "classification.members_built": self.members_built,
            "classification.members_useful_ratio":
                self.members_shown / self.members_built if self.members_built else 0.0,
            "exponents.routes_tried": sum(s(n, 0) for n in ROUTES),
            "exponents.routes_refused": sum(s(n, 5) for n in ROUTES),
            "bott.stable_pi_gauge.calls": stable,
            "bott.normalize_per_value":
                self.nested["spaces.SpaceExpr.normalize"] / stable if stable else 0.0,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid,parent,name,start_s,end_s,query\n")
            for sid, parent, name, t0, t1, qid in self.spans:
                fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f},{qid}\n")
