"""Spans at the boundaries between qdl modules, recorded from outside src/.

``Tracer.install`` replaces each boundary function by a wrapper in every
``qdl`` module namespace that holds it (the defining module and any module
that imported it by name), so calls between modules go through the wrapper
whatever import style the caller uses.  ``uninstall`` puts the originals
back.  A span is [name, start, end, parent span id, command id]; spans stay
in memory until ``write``.  Self time is a span minus its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> functions called from another module (or, for the
# averaged-coefficient and vertex-search kernels, the hot path inside one)
BOUNDARIES = {
    "programmable": ("pure_rates", "general_rates", "mixed_error", "mixed_asymptote",
                     "universal_error", "margin_success", "averaged_block_coefficient"),
    "angular": ("wigner6j_batch", "block_coefficient", "clebsch_gordan"),
    "learning": ("known_pair_error", "lm_error", "eyd_qubit", "reversed_error",
                 "lm_mixed_optimize"),
    "reading": ("collective_excess_risk", "eyd_excess_risk", "optimal_squeezing",
                "finite_n_oracle"),
    "povmdec": ("povm_from_json", "decompose", "ordered_decompose",
                "decomposition_to_json", "find_extremal_vertex"),
    "linalg": ("as_matrix", "require_hermitian", "herm_eig", "herm_eigvals", "trace_norm"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.command = None
        self._stack = []
        self._patches = []
        self._sectors_seen = set()
        self._fock_dim = 1

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.command]
            stack.append(len(spans))
            spans.append(rec)
            result, error = None, None
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(args, kwargs, result, error)
            return result

        return wrapper

    def _patch_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "qdl" and not modname.startswith("qdl."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self):
        import scipy.optimize

        import qdl

        hooks = {
            "wigner6j_batch": (None, self._after_6j),
            "finite_n_oracle": (self._before_oracle, self._after_oracle),
            "find_extremal_vertex": (None, self._after_vertex),
            "decompose": (None, self._after_decompose),
            "ordered_decompose": (None, self._after_decompose),
        }
        self._oracle_sig = None
        for layer, names in BOUNDARIES.items():
            module = getattr(qdl, layer)
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                if fname == "finite_n_oracle":
                    self._oracle_sig = inspect.signature(fn)
                before, after = hooks.get(fname, (None, None))
                self._patch_everywhere(fn, self.wrap(f"{layer}.{fname}", fn, before, after))
        cutoff = getattr(qdl.reading, "fock_cutoff", None)
        if cutoff is not None:
            self._patch_everywhere(cutoff, self._count_cutoff(cutoff))
        minimize = scipy.optimize.minimize
        wrapped = self.wrap("solver.minimize", minimize, None, self._after_minimize)
        scipy.optimize.minimize = wrapped
        self._patches.append((scipy.optimize, "minimize", minimize))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- counters ----------------------------------------------------------

    def _after_6j(self, args, kwargs, result, error):
        c = self.counters
        arrays = [np.asarray(a) for a in args[:6]]
        if len(arrays) < 6:
            return
        c["6j_symbols"] += np.broadcast(*arrays).size
        ja, jb, jab, jc, j = arrays[:5]
        if ja.ndim != 3 or jab.ndim != 3:
            return
        c["sectors"] += ja.shape[0]
        c["block_dim_max"] = max(c["block_dim_max"], jab.shape[1])
        for key in zip(ja.ravel().tolist(), jb.ravel().tolist(), jc.ravel().tolist(),
                       j.ravel().tolist()):
            c["sector_tuples"] += 1
            if key in self._sectors_seen:
                c["sector_repeats"] += 1
            else:
                self._sectors_seen.add(key)

    def _before_oracle(self, args, kwargs):
        bound = self._oracle_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        order = bound.arguments.get("quadrature_order", 0)
        self.counters["quad_nodes"] += order * order
        self._fock_dim = 1

    def _count_cutoff(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rank = fn(*args, **kwargs)
            self._fock_dim *= rank + 1
            return rank

        return wrapper

    def _after_oracle(self, args, kwargs, result, error):
        c = self.counters
        c["fock_dim_max"] = max(c["fock_dim_max"], self._fock_dim)

    def _after_vertex(self, args, kwargs, result, error):
        self.counters["vertex_useful"] += error is None

    def _after_decompose(self, args, kwargs, result, error):
        if error is not None or not result.terms:
            return
        d = result.terms[0][1].dim
        self.counters["terms"] += len(result.terms)
        self.counters["terms_bound"] += (len(result.relabel) - 1) * d + 1

    def _after_minimize(self, args, kwargs, result, error):
        if error is None:
            self.counters["solver_iters"] += getattr(result, "nit", 0)
            self.counters["solver_success"] += bool(getattr(result, "success", False))

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, command) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "command": command}) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, per traced pass (maxima and ratios as they are)."""
        spans = self.spans
        layer = [s[0].split(".", 1)[0] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for sid, s in enumerate(spans):
            if s[3] is not None:
                child[s[3]] += dur[sid]
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        by_name = defaultdict(lambda: [0, 0.0])
        for sid, s in enumerate(spans):
            lay = layer[sid]
            self_s[lay] += dur[sid] - child[sid]
            by_name[s[0]][0] += 1
            by_name[s[0]][1] += dur[sid]
            parent = s[3]
            while parent is not None and layer[parent] != lay:
                parent = spans[parent][3]
            if parent is None:
                calls[lay] += 1
                busy[lay] += dur[sid]

        c = self.counters
        per = 1.0 / max(passes, 1)

        def count(name):
            return by_name[name][0] * per

        def secs(*names):
            return sum(by_name[n][1] for n in names) * per

        def ratio(num, den):
            return num / den if den else 0.0

        vertex_calls = by_name["povmdec.find_extremal_vertex"][0]
        solver_calls = by_name["solver.minimize"][0]
        return {
            "angular.6j_calls": count("angular.wigner6j_batch"),
            "angular.6j_symbols": c["6j_symbols"] * per,
            "angular.6j_s": secs("angular.wigner6j_batch"),
            "angular.coeff_calls": count("angular.block_coefficient"),
            "angular.coeff_s": secs("angular.block_coefficient"),
            "angular.cg_calls": count("angular.clebsch_gordan"),
            "angular.cg_s": secs("angular.clebsch_gordan"),
            "programmable.calls": calls["programmable"] * per,
            "programmable.busy_s": busy["programmable"] * per,
            "programmable.self_s": self_s["programmable"] * per,
            "programmable.sectors": c["sectors"] * per,
            "programmable.block_dim_max": c["block_dim_max"],
            "programmable.avg_coeff_s": secs("programmable.averaged_block_coefficient"),
            "programmable.sector_reuse_frac": ratio(c["sector_repeats"], c["sector_tuples"]),
            "learning.calls": calls["learning"] * per,
            "learning.busy_s": busy["learning"] * per,
            "learning.self_s": self_s["learning"] * per,
            "learning.solver_calls": solver_calls * per,
            "learning.solver_iters": c["solver_iters"] * per,
            "learning.solver_s": secs("solver.minimize"),
            "learning.feasible_frac": ratio(c["solver_success"], solver_calls),
            "reading.calls": calls["reading"] * per,
            "reading.busy_s": busy["reading"] * per,
            "reading.oracle_s": secs("reading.finite_n_oracle"),
            "reading.quad_nodes": c["quad_nodes"] * per,
            "reading.fock_dim_max": c["fock_dim_max"],
            "reading.matrix_mb": c["fock_dim_max"] ** 2 * 16 / 1e6,
            "povmdec.calls": calls["povmdec"] * per,
            "povmdec.busy_s": busy["povmdec"] * per,
            "povmdec.self_s": self_s["povmdec"] * per,
            "povmdec.vertex_calls": vertex_calls * per,
            "povmdec.vertex_s": secs("povmdec.find_extremal_vertex"),
            "povmdec.vertex_useful_frac": ratio(c["vertex_useful"], vertex_calls),
            "povmdec.terms": c["terms"] * per,
            "povmdec.terms_bound_frac": ratio(c["terms"], c["terms_bound"]),
            "povmdec.json_s": secs("povmdec.povm_from_json", "povmdec.decomposition_to_json"),
            "linalg.calls": calls["linalg"] * per,
            "linalg.busy_s": busy["linalg"] * per,
            "cli.commands": count("cli.run"),
            "cli.self_s": self_s["cli"] * per,
        }
