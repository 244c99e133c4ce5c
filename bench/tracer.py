"""Spans around extlab's layers, recorded from outside the package.

The traced run replaces each function in ``TARGETS`` with a wrapper at every
name its callers look it up by: every ``extlab.*`` module attribute bound to
the original (so ``extlab.pairing.eigenbasis`` and ``extlab.spectral.eigenbasis``
are both wrapped, as are ``extlab.cli.pair`` and ``extlab.pairing.pair``), plus
``numpy.linalg.svd``.  No source under ``src/`` changes.  Spans are kept in
memory as ``[id, parent, job, name, start, end, attrs]`` and turned into the
per-layer metrics when the run ends.
"""

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

SPAN_FIELDS = ("id", "parent", "job", "name", "start", "end", "attrs")


def _svd_flops(fn, args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    m, n = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    return {"flops": batch * m * n * min(m, n)}


def _pair_route(fn, args, kwargs, result):
    return {"route": result.method if result.stable else "uncertified"}


def _symbol_grid(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"grid_points": bound.arguments["ngrid"]}


# (module, function, counter(original, args, kwargs, result) -> span attrs)
TARGETS = (
    ("extlab.cli", "main", None),
    ("extlab.cli", "canonical_json", lambda f, a, k, r: {"bytes": len(r.encode("utf-8"))}),
    ("extlab.analysis", "inner_product", None),
    ("extlab.vonneumann", "compute_deficiency", None),
    ("extlab.vonneumann", "boundary_matrix_general", None),
    ("extlab.vonneumann", "boundary_matrix_closed_form", None),
    ("extlab.vonneumann", "boundary_matrix_numeric", None),
    ("extlab.vonneumann", "haar_unitary", None),
    ("extlab.ksum", "verify_identities", lambda f, a, k, r: {"checks": len(r.checks)}),
    ("extlab.spectral", "eigenphases", lambda f, a, k, r: {"roots": len(r)}),
    ("extlab.spectral", "fd_spectrum", None),
    ("extlab.spectral", "eigenbasis", lambda f, a, k, r: {"eigenpairs": len(r)}),
    ("extlab.pairing", "pair", _pair_route),
    ("extlab.pairing", "compression_matrix", lambda f, a, k, r: {"entries": int(r.size)}),
    ("extlab.pairing", "symbol_index", _symbol_grid),
    ("extlab.pairing", "winding", None),
    ("numpy.linalg", "svd", _svd_flops),
)


class Tracer:
    """Records one span per call of a patched function."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._local = threading.local()
        self._patches = []          # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, by_caller=False):
        """``fn`` recording a span named ``name`` (suffixed with the calling
        module's last component when ``by_caller``)."""
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if by_caller:
                caller = sys._getframe(1).f_globals.get("__name__", "?")
                label = f"{name}.in_{caller.rpartition('.')[2]}"
            stack = stack_of()
            span = [len(spans), stack[-1][0] if stack else None, self.job, label,
                    0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = clock()
                stack.pop()
                span[6] = {"raised": type(exc).__name__}
                raise
            span[5] = clock()
            stack.pop()
            if count is not None:
                span[6] = count(fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets=TARGETS):
        """Install the wrappers; restore every original on exit and check it."""
        try:
            for module_name, attr, count in targets:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                if module_name == "numpy.linalg":
                    wrapper = self.wrap("linalg." + attr, original, count, by_caller=True)
                    owners = [(module, attr)]
                else:
                    layer = module_name.rpartition(".")[2]
                    wrapper = self.wrap(f"{layer}.{attr}", original, count)
                    owners = [(m, a) for m in _extlab_modules()
                              for a, v in vars(m).items() if v is original]
                for owner, name in owners:
                    self._patches.append((owner, name, original))
                    setattr(owner, name, wrapper)
            yield self
        finally:
            self.restore()

    def restore(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        left = [f"{owner.__name__}.{name}" for owner, name, original in self._patches
                if getattr(owner, name) is not original]
        self._patches = []
        if left:
            raise RuntimeError("patched attributes not restored: " + ", ".join(left))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def _extlab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "extlab" or n.startswith("extlab."))]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _stat(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


def _calls_self(prefix):
    return [_stat(f"{prefix}.calls", "count"), _stat(f"{prefix}.self_s", "s")]


ROUTES = ("finite_section", "symbol_winding", "extension_independence", "uncertified")

PER_LAYER = (
    [_stat("cli.main.self_s", "s")]
    + _calls_self("cli.canonical_json") + [_stat("cli.canonical_json.bytes", "bytes")]
    + _calls_self("analysis.inner_product")
    + [s for f in ("compute_deficiency", "boundary_matrix_general",
                   "boundary_matrix_closed_form", "boundary_matrix_numeric", "haar_unitary")
       for s in _calls_self(f"vonneumann.{f}")]
    + _calls_self("ksum.verify_identities")
    + [_stat("ksum.verify_identities.checks", "count", "higher")]
    + _calls_self("spectral.eigenphases") + [_stat("spectral.eigenphases.roots", "count")]
    + _calls_self("spectral.fd_spectrum")
    + _calls_self("spectral.eigenbasis")
    + [_stat("spectral.eigenbasis.eigenpairs", "count"),
       _stat("spectral.eigenbasis.per_pair", "count/pair")]
    + _calls_self("pairing.pair")
    + [_stat(f"pairing.pair.route.{r}", "count",
             "lower" if r == "uncertified" else "higher") for r in ROUTES]
    + [_stat("pairing.finite_section.resolved_frac", "ratio", "higher")]
    + _calls_self("pairing.compression_matrix")
    + [_stat("pairing.compression_matrix.per_pair", "count/pair"),
       _stat("pairing.compression_matrix.entries", "count")]
    + _calls_self("pairing.symbol_index")
    + [_stat("pairing.symbol_index.per_pair", "count/pair"),
       _stat("pairing.symbol_index.grid_points", "count")]
    + _calls_self("pairing.winding")
    + _calls_self("linalg.svd.in_spectral")
    + _calls_self("linalg.svd.in_pairing")
    + [_stat("linalg.svd.in_pairing.flops_computed", "flop"),
       _stat("trace.overhead_frac", "ratio")]
)


def layer_metrics(spans, passes: int, overhead_frac: float) -> dict:
    """Per-layer values per pass of the workload, keyed as in ``PER_LAYER``.

    Self time is a span's duration minus the durations of its child spans.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    calls, self_s, attrs = defaultdict(int), defaultdict(float), defaultdict(float)
    for span in spans:
        name = span[3]
        calls[name] += 1
        self_s[name] += span[5] - span[4] - child_time[span[0]]
        for key, value in (span[6] or {}).items():
            if key == "route":
                attrs[f"pairing.pair.route.{value.replace('-', '_')}"] += 1
            elif key == "raised":
                if name == "pairing.pair":
                    attrs["pairing.pair.route.uncertified"] += 1
            else:
                attrs[f"{name}.{key}"] += value

    pairs = calls["pairing.pair"]
    values = {}
    for stat in PER_LAYER:
        metric = stat["name"]
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            value = calls[layer]
        elif kind == "self_s":
            value = self_s[layer]
        elif kind == "per_pair":
            value = calls[layer] / pairs if pairs else 0.0
        elif metric == "pairing.finite_section.resolved_frac":
            value = attrs["pairing.pair.route.finite_section"] / pairs if pairs else 0.0
        elif metric == "trace.overhead_frac":
            value = overhead_frac
        elif metric == "linalg.svd.in_pairing.flops_computed":
            value = attrs["linalg.svd.in_pairing.flops"]
        else:
            value = attrs[metric]
        if kind != "per_pair" and not metric.endswith("_frac"):
            value = value / passes
        values[metric] = value
    return values
