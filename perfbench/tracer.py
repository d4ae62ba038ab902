"""Outside-in tracing of dunklkit's layers.

The tracer wraps public functions of each layer and rebinds the wrapper in
every ``dunklkit`` module that imported the name, so calls between layers are
seen as well as calls from the suites.  Each call records a span: function,
start, end, parent span and case, where a case is one ``run_suite`` call.
Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
The tracer's own bookkeeping (counting Bessel points, hashing kernel
arguments) runs outside the span it belongs to and is summed on its own.  By
construction, self times plus bookkeeping add up to the time the case spans
cover, so that sum checks nothing.  What does check the tracer is ``audit``:
a pass in which a profiler counts the calls of every target independently of
the wrappers, so a call the tracer failed to rebind shows as a mismatch.

Counters are taken from the arguments the wrappers see and from
``cache_info()`` of the cached public functions; nothing inside dunklkit is
changed.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

import numpy as np

# Bessel points with |u| up to this radius take the power-series branch.
SERIES_RADIUS = 12.0

# (module, attribute, function name, group).  The function name prefixes its
# call count, the group its self time, and the group's first part is the layer.
TARGETS = [
    ("kernel", "bessel_j_normalized", "kernel.bessel", "kernel.bessel"),
    ("kernel", "kernel_1d", "kernel.kernel_1d", "kernel.kernel_1d"),
    ("kernel", "kernel_1d_dz", "kernel.kernel_1d_dz", "kernel.other"),
    ("kernel", "kernel_value", "kernel.kernel_value", "kernel.kernel_value"),
    ("kernel", "kernel_series", "kernel.kernel_series", "kernel.kernel_series"),
    ("kernel", "check_bounds", "kernel.check_bounds", "kernel.check_bounds"),
    ("transform", "dunkl_transform_many", "transform.dunkl_transform_many", "transform.contract"),
    ("transform", "dunkl_inverse_many", "transform.dunkl_inverse_many", "transform.contract"),
    ("transform", "classical_fourier_many", "transform.classical_fourier_many", "transform.contract"),
    ("transform", "multiplier_P_many", "transform.multiplier_P_many", "transform.contract"),
    ("transform", "make_plan", "transform.make_plan", "transform.make_plan"),
    ("transform", "dunkl_transform", "transform.dunkl_transform", "transform.other"),
    ("transform", "dunkl_inverse", "transform.dunkl_inverse", "transform.other"),
    ("transform", "dunkl_roundtrip_many", "transform.dunkl_roundtrip_many", "transform.other"),
    ("transform", "classical_fourier", "transform.classical_fourier", "transform.other"),
    ("transform", "multiplier_P", "transform.multiplier_P", "transform.other"),
    ("transform", "fourier_bessel", "transform.fourier_bessel", "transform.other"),
    ("transform", "gaussian_eigen_constant", "transform.gaussian_eigen_constant", "transform.other"),
    ("transform", "inverse_constant", "transform.inverse_constant", "transform.other"),
    ("transform", "p_multiplier_constant", "transform.p_multiplier_constant", "transform.other"),
    ("intertwine1d", "V_k_num", "intertwine1d.V_k_num", "intertwine1d.V_k_num"),
    ("intertwine1d", "V_k_num_product", "intertwine1d.V_k_num_product", "intertwine1d.V_k_num"),
    ("intertwine1d", "tV_k_num", "intertwine1d.tV_k_num", "intertwine1d.tV_k_num"),
    ("intertwine1d", "tV_k_num_product", "intertwine1d.tV_k_num_product", "intertwine1d.tV_k_num"),
    ("intertwine1d", "inv_V_via_P", "intertwine1d.inv_V_via_P", "intertwine1d.inverse"),
    ("intertwine1d", "inv_V_via_Q", "intertwine1d.inv_V_via_Q", "intertwine1d.inverse"),
    ("intertwine1d", "inv_tV_via_VkP", "intertwine1d.inv_tV_via_VkP", "intertwine1d.inverse"),
    ("intertwine1d", "dual_inverse_via_transform", "intertwine1d.dual_inverse_via_transform",
     "intertwine1d.inverse"),
    ("intertwine1d", "eta_pairing", "intertwine1d.eta_pairing", "intertwine1d.inverse"),
    ("intertwine1d", "z_pairing", "intertwine1d.z_pairing", "intertwine1d.inverse"),
    ("intertwine1d", "dual_via_transform", "intertwine1d.dual_via_transform", "intertwine1d.other"),
    ("intertwine1d", "mu_quadrature", "intertwine1d.mu_quadrature", "intertwine1d.other"),
    ("intertwine1d", "mu_density", "intertwine1d.mu_density", "intertwine1d.other"),
    ("intertwine1d", "default_line_plan", "intertwine1d.default_line_plan", "intertwine1d.other"),
    ("intertwine1d", "local_P", "intertwine1d.local_P", "intertwine1d.other"),
    ("intertwine1d", "local_Q", "intertwine1d.local_Q", "intertwine1d.other"),
    ("intertwine1d", "mass_constant", "intertwine1d.mass_constant", "intertwine1d.other"),
    ("convolution", "translate_spectral", "convolution.translate_spectral", "convolution.translate"),
    ("convolution", "translate_spectral_many", "convolution.translate_spectral_many",
     "convolution.translate"),
    ("convolution", "translate_measure", "convolution.translate_measure", "convolution.translate"),
    ("convolution", "kernel_multiplier", "convolution.kernel_multiplier", "convolution.translate"),
    ("convolution", "convolve_many", "convolution.convolve_many", "convolution.convolve"),
    ("convolution", "convolve", "convolution.convolve", "convolution.convolve"),
    ("convolution", "distribution_convolve", "convolution.distribution_convolve", "convolution.convolve"),
    ("convolution", "approx_identity_check", "convolution.approx_identity_check",
     "convolution.approx_identity"),
    ("convolution", "BumpProfile.create", "convolution.BumpProfile.create", "convolution.other"),
    ("convolution", "BumpProfile.transform_at", "convolution.BumpProfile.transform_at", "convolution.other"),
    ("polyexact", "intertwine_matrix", "polyexact.intertwine_matrix", "polyexact.intertwine_matrix"),
    ("polyexact", "dunkl_apply", "polyexact.dunkl_apply", "polyexact.dunkl_apply"),
    ("polyexact", "intertwine", "polyexact.intertwine", "polyexact.other"),
    ("polyexact", "intertwine_inverse", "polyexact.intertwine_inverse", "polyexact.other"),
    ("polyexact", "intertwine_matrix_inverse", "polyexact.intertwine_matrix_inverse", "polyexact.other"),
    ("polyexact", "apply_P_poly", "polyexact.apply_P_poly", "polyexact.other"),
    ("polyexact", "apply_Q_poly", "polyexact.apply_Q_poly", "polyexact.other"),
    ("polyexact", "monomial_basis", "polyexact.monomial_basis", "polyexact.other"),
    ("polyexact", "operator_prefactor", "polyexact.operator_prefactor", "polyexact.other"),
    ("rootsys", "RootSystem.axis_profile", "rootsys.axis_profile", "rootsys.axis_profile"),
    ("rootsys", "RootSystem.create", "rootsys.create", "rootsys.other"),
    ("rootsys", "RootSystem.group", "rootsys.group", "rootsys.other"),
    ("rootsys", "mehta_constant", "rootsys.mehta_constant", "rootsys.mehta"),
    ("rootsys", "mehta_by_quadrature", "rootsys.mehta_by_quadrature", "rootsys.mehta"),
    ("rootsys", "weight", "rootsys.weight", "rootsys.other"),
    ("rootsys", "rank_one", "rootsys.rank_one", "rootsys.other"),
    ("rootsys", "axis_product", "rootsys.axis_product", "rootsys.other"),
]
CASE = "suites.case"

# The cached public functions whose cache_info() the tracer reads.
CACHES = [
    ("intertwine1d", "mu_quadrature"),
    ("intertwine1d", "default_line_plan"),
    ("polyexact", "intertwine_matrix"),
    ("polyexact", "monomial_basis"),
]

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _entry_hashes(gamma, z, t) -> np.ndarray:
    """A 64-bit hash of (gamma, z, t) for every entry of the broadcast."""
    parts = np.broadcast_arrays(np.asarray(gamma, dtype=float) + 0.0,
                                np.asarray(z, dtype=complex) + 0.0,
                                np.asarray(t, dtype=complex) + 0.0)
    h = np.zeros(parts[0].size, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for part in (parts[0], parts[1].real, parts[1].imag, parts[2].real, parts[2].imag):
            h ^= np.ascontiguousarray(part, dtype=np.float64).reshape(-1).view(np.uint64)
            h *= _MIX
            h ^= h >> np.uint64(29)
    return h


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        self.names = [fname for _, _, fname, _ in TARGETS] + [CASE]
        self.groups = [group for _, _, _, group in TARGETS] + ["suites"]
        self.fid = {fname: i for i, fname in enumerate(self.names)}
        self.caches = {name: getattr(sys.modules[f"dunklkit.{mod}"], name) for mod, name in CACHES}
        self.passes = []
        self._patches = []
        self._reset()

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        """Wrap every target; the pass that follows is the one measured."""
        self.cache_before = {name: fn.cache_info() for name, fn in self.caches.items()}
        self.originals = {}
        for mod, attr, fname, group in TARGETS:
            module = sys.modules[f"dunklkit.{mod}"]
            layer = group.split(".")[0]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                descriptor = cls.__dict__[meth]
                static = isinstance(descriptor, staticmethod)
                fn = descriptor.__func__ if static else descriptor
                self.originals[fname] = fn
                wrapper = self._wrap(fn, self.fid[fname], layer)
                setattr(cls, meth, staticmethod(wrapper) if static else wrapper)
                self._patches.append((cls, meth, descriptor))
                continue
            original = self.originals[fname] = getattr(module, attr)
            wrapper = self._wrap(original, self.fid[fname], layer)
            for name, mod_obj in list(sys.modules.items()):
                if name != "dunklkit" and not name.startswith("dunklkit."):
                    continue
                for key, value in list(vars(mod_obj).items()):
                    if value is original:
                        setattr(mod_obj, key, wrapper)
                        self._patches.append((mod_obj, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def audit(self, run):
        """Run ``run()`` traced and check that the wrappers saw every call.

        A profiler counts, in the same pass, the calls of each target's own
        code, which a reference the tracer failed to rebind cannot hide.  A
        cached target's code runs only on a miss, so its calls are read from
        ``cache_info()`` instead.  The pass's spans are dropped, since the
        profiler slows it.  Returns ``run()``'s result and, for every target
        whose calls and spans differ, the two counts.
        """
        self.install()
        codes = {fn.__code__: fname for fname, fn in self.originals.items() if not hasattr(fn, "cache_info")}
        cached = {fname: fn for fname, fn in self.originals.items() if hasattr(fn, "cache_info")}
        before = {fname: fn.cache_info() for fname, fn in cached.items()}
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls[codes[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            result = run()
        finally:
            sys.setprofile(None)
            self.uninstall()
        for fname, fn in cached.items():
            after = fn.cache_info()
            calls[fname] = after.hits + after.misses - before[fname].hits - before[fname].misses
        spans = collections.Counter(self.names[fid] for fid in self.span_fid)
        self._reset()
        return result, {name: (calls[name], spans[name]) for name in self.originals if calls[name] != spans[name]}

    def _wrap(self, fn, fid, layer):
        fname = self.names[fid]
        hook = {
            "kernel.bessel": self._count_bessel,
            "kernel.kernel_1d": self._count_kernel_1d,
            "intertwine1d.V_k_num": functools.partial(self._count_line_points, "x"),
            "intertwine1d.tV_k_num": functools.partial(self._count_line_points, "y"),
            "intertwine1d.V_k_num_product": self._count_product_points,
            "intertwine1d.tV_k_num_product": self._count_product_points,
        }.get(fname)
        in_transform = layer == "transform"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fid, hook, in_transform, fn, args, kwargs)

        return traced

    # -- spans ---------------------------------------------------------------

    def _reset(self):
        self.span_fid, self.parent, self.case = [], [], []
        self.start, self.end, self.cover = [], [], []
        self.stack = []
        self.current_case = -1
        self.transform_depth = 0
        self.counts = dict.fromkeys(
            ["bessel.points", "bessel.series", "bessel.real", "bessel.imag", "bessel.complex",
             "kernel_1d.entries", "transform.kernel_bytes",
             "intertwine1d.V_k_num", "intertwine1d.tV_k_num"], 0)
        self.kernel_calls = 0
        self.hashes, self.hash_calls = [], []
        self.scalar_entries = []

    def _call(self, fid, hook, in_transform, fn, args, kwargs):
        t0 = time.perf_counter()
        idx = len(self.span_fid)
        self.span_fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.case.append(self.current_case)
        self.start.append(0.0)
        self.end.append(0.0)
        self.cover.append(0.0)
        self.stack.append(idx)
        self.transform_depth += in_transform
        ok = False
        t1 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t2 = time.perf_counter()
            self.stack.pop()
            self.transform_depth -= in_transform
            if ok and hook is not None:
                hook(fid, args, kwargs)
            self.start[idx] = t1
            self.end[idx] = t2
            self.cover[idx] = time.perf_counter() - t0

    def run_case(self, index, fn, *args):
        """One case as a span of its own, the root of that case's spans."""
        self.current_case = index
        return self._call(self.fid[CASE], None, False, fn, args, {})

    # -- counters taken from arguments -------------------------------------

    def _count_bessel(self, fid, args, kwargs):
        u = _argument(args, kwargs, 1, "u")
        counts = self.counts
        if np.ndim(u) == 0:
            u = complex(u)
            mag = abs(u)
            scale = max(1.0, mag)
            real = abs(u.imag) <= 1e-14 * scale
            imag = not real and abs(u.real) <= 1e-14 * scale
            counts["bessel.points"] += 1
            counts["bessel.series"] += mag <= SERIES_RADIUS
            counts["bessel.real"] += real
            counts["bessel.imag"] += imag
            counts["bessel.complex"] += not (real or imag)
            return
        u = np.asarray(u, dtype=complex).reshape(-1)
        mag = np.abs(u)
        scale = np.maximum(1.0, mag)
        real = np.abs(u.imag) <= 1e-14 * scale
        imag = ~real & (np.abs(u.real) <= 1e-14 * scale)
        n_real, n_imag = int(np.count_nonzero(real)), int(np.count_nonzero(imag))
        counts["bessel.points"] += u.size
        counts["bessel.series"] += int(np.count_nonzero(mag <= SERIES_RADIUS))
        counts["bessel.real"] += n_real
        counts["bessel.imag"] += n_imag
        counts["bessel.complex"] += u.size - n_real - n_imag

    def _count_kernel_1d(self, fid, args, kwargs):
        gamma = float(_argument(args, kwargs, 0, "gamma"))
        z, t = _argument(args, kwargs, 1, "z"), _argument(args, kwargs, 2, "t")
        call = self.kernel_calls
        self.kernel_calls += 1
        if np.ndim(z) == 0 and np.ndim(t) == 0:
            # hashed in one batch when the pass ends
            self.scalar_entries.append((gamma, complex(z), complex(t), call))
            entries = 1
        else:
            h = _entry_hashes(gamma, z, t)
            self.hashes.append(h)
            self.hash_calls.append(np.full(h.size, call))
            entries = h.size
        self.counts["kernel_1d.entries"] += entries
        if self.transform_depth > 0:
            self.counts["transform.kernel_bytes"] += 16 * entries

    def _count_line_points(self, name, fid, args, kwargs):
        """Points of a V or tV call on a line: one per entry of its x or y."""
        self._count_points(fid, np.size(_argument(args, kwargs, 2, name)))

    def _count_product_points(self, fid, args, kwargs):
        """Points of a V or tV call on a product system: one per row of ``points``."""
        points = np.asarray(_argument(args, kwargs, 2, "points"), dtype=float)
        self._count_points(fid, np.atleast_2d(points).shape[0])

    def _count_points(self, fid, points):
        # A call inside another call of the same group (tV_k_num inside
        # tV_k_num_product, or inside itself) evaluates points already counted.
        group = self.groups[fid]
        if any(self.groups[self.span_fid[s]] == group for s in self.stack):
            return
        self.counts[group] += int(points)

    # -- per-pass results -----------------------------------------------------

    def finish_pass(self, pass_s):
        """Close a traced pass: return its metrics and keep its spans."""
        fid = np.asarray(self.span_fid, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int64)
        start, end = np.asarray(self.start), np.asarray(self.end)
        cover = np.asarray(self.cover)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=cover[has_parent], minlength=fid.size)
        self_s = (end - start) - child
        book = cover - (end - start)

        m = {}
        for i, (fname, group) in enumerate(zip(self.names, self.groups)):
            calls = int(np.count_nonzero(fid == i))
            spent = float(self_s[fid == i].sum())
            layer = group.split(".")[0]
            m[f"{fname}.calls"] = m.get(f"{fname}.calls", 0) + calls
            if group != fname:
                m[f"{group}.calls"] = m.get(f"{group}.calls", 0) + calls
            m[f"{group}.self_s"] = m.get(f"{group}.self_s", 0.0) + spent
            if layer != group:
                m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + spent
        c = self.counts
        bessel_s = m["kernel.bessel.self_s"]
        m.update({
            "kernel.bessel.points": c["bessel.points"],
            "kernel.bessel.series_points": c["bessel.series"],
            "kernel.bessel.real_points": c["bessel.real"],
            "kernel.bessel.imag_points": c["bessel.imag"],
            "kernel.bessel.complex_points": c["bessel.complex"],
            "kernel.bessel.points_per_s": c["bessel.points"] / bessel_s if bessel_s > 0 else 0.0,
            "kernel.bessel.share": bessel_s / pass_s,
            "kernel.kernel_1d.entries": c["kernel_1d.entries"],
            "kernel.kernel_1d.repeat_frac": self._repeat_frac(),
            "transform.kernel_bytes": c["transform.kernel_bytes"],
            "intertwine1d.V_k_num.points": c["intertwine1d.V_k_num"],
            "intertwine1d.tV_k_num.points": c["intertwine1d.tV_k_num"],
            "trace.pass_s": pass_s,
            "trace.spans": int(fid.size),
            "trace.bookkeeping_s": float(book.sum()),
            "trace.unaccounted_frac": (pass_s - float(cover[~has_parent].sum())) / pass_s,
        })
        for name, fn in self.caches.items():
            after, before = fn.cache_info(), self.cache_before[name]
            hits, misses = after.hits - before.hits, after.misses - before.misses
            m[f"cache.{name}.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
            m[f"cache.{name}.misses"] = misses
        m["polyexact.intertwine_matrix.misses"] = m.pop("cache.intertwine_matrix.misses")
        self.passes.append({"fid": fid, "parent": parent, "case": np.asarray(self.case, dtype=np.int32),
                            "start": start, "end": end, "cover": cover})
        self._reset()
        return m

    def _repeat_frac(self) -> float:
        """Share of kernel_1d entries whose (gamma, z, t) an earlier call computed."""
        hashes, calls = list(self.hashes), list(self.hash_calls)
        if self.scalar_entries:
            gamma, z, t, call = zip(*self.scalar_entries)
            hashes.append(_entry_hashes(np.array(gamma), np.array(z), np.array(t)))
            calls.append(np.array(call))
        if not hashes:
            return 0.0
        hashes, calls = np.concatenate(hashes), np.concatenate(calls)
        # scalar entries were appended last: put every entry back in call order,
        # so that the first entry of each hash is its earliest computation
        order = np.argsort(calls, kind="stable")
        hashes, calls = hashes[order], calls[order]
        _, first, inverse = np.unique(hashes, return_index=True, return_inverse=True)
        return float(np.count_nonzero(calls[first][inverse] != calls)) / hashes.size

    def save(self, path):
        """Write every kept span: one array per field, one row per span."""
        fields = {}
        for key in ("fid", "parent", "case", "start", "end", "cover"):
            fields[key] = np.concatenate([p[key] for p in self.passes]) if self.passes else np.zeros(0)
        fields["pass_index"] = np.repeat(np.arange(len(self.passes)), [p["fid"].size for p in self.passes])
        np.savez_compressed(path, names=np.array(self.names), groups=np.array(self.groups), **fields)
