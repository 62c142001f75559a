"""The ``scale`` workload: array work at realistic sizes.

A pass runs the optimized JACOBI, CG and SRAD in full at a tenth of
``large`` (JACOBI N=150 000, ITER=30; CG N=15 000, CGITMAX=25; SRAD N=160),
then JACOBI and CG at ``large`` under ``SamplingConfig()``, each from a
fresh context.  One operation is one kernel launch (``AccRuntime.launch``):
a pass is 282 of them, where its 5 program runs would be too few for a
percentile.

Here array work dominates and compile time is a rounding error: lane
enumeration and launch-spec construction, the vectorized fast path,
1.5M-element transfers, SRAD's host loops and 16 interleaved launches, and
the phase sampler.  Measured on the 2-core machine the benchmark was sized
on: 2.3 s, 1.7 s and 1.5-1.8 s for the three full runs; 1.8 s and 1.0-1.3 s
for the two sampled ones.  Full ``large`` runs take too long to repeat
(JACOBI 25 s, CG 16 s, SRAD 13 s, KMEANS 119 s).

The inputs come from ``repro.bench.workloads`` with the seed; no program's
``SIZES`` is touched.  The full runs are checked against the numpy
references below, every run's byte count against its data clauses.
"""

from __future__ import annotations

import gc
import hashlib
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from measure import PassResult, Tally, split, time_calls
from tracer import Patches

ABS_MARGIN = 1e-9
REL_MARGIN = 1e-6
DOUBLE = 8


# -- inputs -----------------------------------------------------------------
def jacobi_params(seed: int, n: int = 150_000, iters: int = 30) -> dict:
    from repro.bench.workloads import dense_vector

    return {"N": n, "ITER": iters, "a": dense_vector(n, seed=seed),
            "b": dense_vector(n, seed=seed + 1, lo=-0.1, hi=0.1)}


def cg_params(seed: int, n: int = 15_000, cgitmax: int = 25) -> dict:
    from repro.bench.workloads import csr_laplacian_like, dense_vector

    rowptr, colidx, vals = csr_laplacian_like(n, nnz_per_row=4, seed=seed)
    return {"N": n, "NITER": 1, "CGITMAX": cgitmax, "N1": n + 1,
            "NNZ": len(colidx), "rowptr": rowptr, "colidx": colidx,
            "vals": vals,
            "x": dense_vector(n, seed=seed + 2, lo=0.5, hi=1.0)}


def srad_params(seed: int, n: int = 160, iters: int = 16,
                roi: int = 32) -> dict:
    from repro.bench.workloads import speckled_image

    return {"N": n, "ITER": iters, "ROI": roi, "RN": roi * roi,
            "img": speckled_image(n, seed=seed) * 100.0, "lambda": 0.5}


# -- numpy references ---------------------------------------------------------
def jacobi_reference(p: dict) -> dict:
    a = p["a"].copy()
    b = p["b"]
    for _ in range(p["ITER"]):
        a[1:-1] = 0.5 * (a[:-2] + a[2:]) + b[1:-1]
    return {"a": a, "resid": a[p["N"] // 2]}


def cg_reference(p: dict) -> dict:
    n, rowptr, colidx, vals = p["N"], p["rowptr"], p["colidx"], p["vals"]
    rows = np.repeat(np.arange(n), np.diff(rowptr))
    z = np.zeros(n)
    r = p["x"].copy()
    d = r.copy()
    rho = r @ r
    for _ in range(p["NITER"] * p["CGITMAX"]):
        q = np.bincount(rows, weights=vals * d[colidx], minlength=n)
        alpha = rho / (d @ q)
        z = z + alpha * d
        r = r - alpha * q
        rho, rho0 = r @ r, rho
        d = r + (rho / rho0) * d
    return {"z": z, "znorm": z @ z, "rho": rho}


def srad_reference(p: dict) -> dict:
    img = np.exp(p["img"] / 255.0)
    roi, lam = p["ROI"], p["lambda"]
    for _ in range(p["ITER"]):
        window = img[:roi, :roi]
        mean = window.sum() / (roi * roi)
        var = (window * window).sum() / (roi * roi) - mean * mean
        q0sqr = var / (mean * mean)
        dn = np.vstack([img[:1], img[:-1]]) - img
        ds = np.vstack([img[1:], img[-1:]]) - img
        dw = np.hstack([img[:, :1], img[:, :-1]]) - img
        de = np.hstack([img[:, 1:], img[:, -1:]]) - img
        g2 = (dn * dn + ds * ds + dw * dw + de * de) / (img * img)
        lap = (dn + ds + dw + de) / img
        num = 0.5 * g2 - 0.0625 * lap * lap
        den = 1.0 + 0.25 * lap
        qsq = num / (den * den)
        c = 1.0 / (1.0 + (qsq - q0sqr) / (q0sqr * (1.0 + q0sqr)))
        c = np.clip(c, 0.0, 1.0)
        cs = np.vstack([c[1:], c[-1:]])
        ce = np.hstack([c[:, 1:], c[:, -1:]])
        img = img + 0.25 * lam * (c * dn + cs * ds + c * dw + ce * de)
    img = np.log(img) * 255.0
    return {"img": img, "imgchk": img.sum()}


# -- bytes each program's data clauses move -----------------------------------
def jacobi_bytes(p: dict) -> int:      # copyin(b) copy(a)
    return 3 * p["N"] * DOUBLE


def cg_bytes(p: dict) -> int:          # copyin(rowptr, colidx, vals, p, r) copy(z)
    return (p["N1"] + 2 * p["NNZ"] + 4 * p["N"]) * DOUBLE


def srad_bytes(p: dict) -> int:        # copy(img); update host(roivals) per iteration
    return (2 * p["N"] ** 2 + p["ITER"] * p["RN"]) * DOUBLE


# (label, program, params, sampled, reference or None, bytes formula)
Run = Tuple[str, str, dict, bool, Callable, Callable]


class Scale:
    PASS_S = 9.0        # nominal pass seconds, which set the pass count
    MIN_TIMED = 3       # timed passes at least
    SAME_OPS = True     # every pass makes the same launches in the same order

    def __init__(self, seed: int):
        from repro.bench import get
        from repro.runtime.accrt import AccRuntime

        self.runs: List[Run] = [
            ("JACOBI", "JACOBI", jacobi_params(seed), False,
             jacobi_reference, jacobi_bytes),
            ("CG", "CG", cg_params(seed), False, cg_reference, cg_bytes),
            ("SRAD", "SRAD", srad_params(seed), False, srad_reference,
             srad_bytes),
            ("JACOBI_sampled", "JACOBI", get("JACOBI").params("large", seed),
             True, None, jacobi_bytes),
            ("CG_sampled", "CG", get("CG").params("large", seed), True, None,
             cg_bytes),
        ]
        self.tally = Tally()
        # One operation of this workload is one kernel launch.
        self.launches: List[Tuple[float, bool]] = []
        self.patches = Patches()
        time_calls(self.patches, AccRuntime, "launch", self.launches)
        self.last: Dict[str, Tuple[Dict[str, np.ndarray], int, int]] = {}

    def _run(self, program: str, params: dict, sampled: bool):
        from repro.bench import get
        from repro.interp import run_compiled
        from repro.sampling import SamplingConfig
        from repro.toolchain import ToolchainContext

        ctx = ToolchainContext()
        if sampled:
            ctx.sampling = SamplingConfig()
        bench = get(program)
        run = run_compiled(bench.compile("optimized", ctx=ctx),
                           params=params, ctx=ctx)
        self.tally.add(ctx)
        outputs = {var: np.array(run.env.load(var)) for var in bench.outputs}
        counters = run.runtime.profiler.counters
        return (outputs, run.runtime.device.total_transferred_bytes(),
                counters.get("sample.skipped_launches", 0))

    def run_pass(self) -> PassResult:
        extra, segments = {}, []
        del self.launches[:]
        digest = hashlib.sha256()
        for label, program, params, sampled, _, _ in self.runs:
            # The previous run's arrays are freed before this one starts,
            # whenever the collector would have got to them.
            gc.collect()
            first, start = len(self.launches), time.perf_counter()
            try:
                self.last[label] = self._run(program, params, sampled)
            except Exception as err:    # a failed run is one failed op
                digest.update(f"{label}: {type(err).__name__}".encode())
                self.launches.append((time.perf_counter() - start, False))
            else:
                for _, value in sorted(self.last[label][0].items()):
                    digest.update(value.tobytes())
            wall = time.perf_counter() - start
            extra[f"program.{label}.wall_s"] = wall
            segments += split(self.launches, first, wall)
        return PassResult(list(self.launches), digest.hexdigest(), extra,
                          segments)

    def check(self) -> List[str]:
        from repro.verify.comparison import ComparisonPolicy, compare_arrays

        policy = ComparisonPolicy(error_margin=ABS_MARGIN,
                                  relative_margin=REL_MARGIN)
        problems = []
        for label, _, params, sampled, reference, nbytes in self.runs:
            if label not in self.last:
                problems.append(f"{label}: never completed")
                continue
            outputs, moved, skipped = self.last[label]
            if moved != nbytes(params):
                problems.append(f"{label}: moved {moved} B, its data clauses "
                                f"move {nbytes(params)} B")
            if sampled:
                if not skipped:
                    problems.append(f"{label}: the sampler skipped nothing")
                continue
            for var, want in reference(params).items():
                result = compare_arrays(var, np.atleast_1d(want),
                                        np.atleast_1d(outputs[var]), policy)
                if not result.passed:
                    problems.append(f"{label}: {result.message()}")
        return problems

    def close(self) -> None:
        self.patches.restore()
