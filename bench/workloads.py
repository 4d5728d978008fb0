"""The four benchmark workloads: their inputs, CLI operations and output checks.

Each workload writes its input files from the seed, lists the CLI argument
vectors of one round (the operations that produce its complete outputs),
a smaller warm-up round, and named checks.  A check reads the round's
output files and printed text, compares them with a computation made apart
from bellshrink (``oracle``) or with a property the method must have, and
raises CheckFailed when they disagree.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


class CheckFailed(AssertionError):
    pass


@dataclass
class RoundOutput:
    files: dict[str, bytes]  # output file name -> contents
    stdout: list[str]  # printed text, one entry per operation

    def rows(self, name: str) -> list[dict[str, str]]:
        return list(csv.DictReader(io.StringIO(self.files[name].decode("utf-8"))))


Check = Callable[[RoundOutput], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def _write_counts_csv(path: Path, X: np.ndarray, y: np.ndarray) -> list[str]:
    names = [f"x{i}" for i in range(1, X.shape[1] + 1)]
    lines = [",".join(["y", *names])]
    lines += [f"{yi}," + ",".join(format(v, ".10g") for v in row) for yi, row in zip(y.tolist(), X)]
    _write(path, "\n".join(lines) + "\n")
    return names


def _restriction_text(H: np.ndarray, h: np.ndarray) -> str:
    return "".join(
        " ".join(format(v, ".17g") for v in row) + f" | {format(b, '.17g')}\n"
        for row, b in zip(H, h)
    )


def _read_data(path: Path) -> tuple[np.ndarray, np.ndarray]:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    X = np.column_stack([np.ones(table.shape[0]), table[:, 1:]])
    return X, table[:, 0]


class Workload:
    name: str
    ops: list[list[str]]  # one round: argv of each CLI call
    warmup: list[list[str]]
    outputs: list[Path]  # files a round writes

    def checks(self) -> list[tuple[str, Check]]:
        raise NotImplementedError


# --- sim-grid -----------------------------------------------------------------

SIM_N = (50, 100, 200)
SIM_P = (3, 6, 12)
SIM_TAU = (0.0, 1.0)
SIM_REPLICATIONS = 40
SIM_ORACLE_DRAWS = 2000
SIM_SMSE_BAND = (0.6, 1.6)


class SimGrid(Workload):
    """All nine paper designs on the tau grid {0, 1}, simulated by one CLI call."""

    name = "sim-grid"

    def __init__(self, workdir: Path, seed: int):
        grid = (
            f"n = {', '.join(map(str, SIM_N))}\n"
            f"p = {', '.join(map(str, SIM_P))}\n"
            f"tau = {', '.join(format(t, 'g') for t in SIM_TAU)}\n"
        )
        cfg = _write(workdir / "sim.cfg",
                     grid + f"replications = {SIM_REPLICATIONS}\nalpha = 0.05\nseed = {seed}\n")
        warm = _write(workdir / "warm.cfg",
                      f"n = 50\np = 3\ntau = 0, 1\nreplications = 3\nseed = {seed}\n")
        out = workdir / "sim.csv"
        self.ops = [["simulate", "--config", str(cfg), "--threads", "1", "--out", str(out)]]
        self.warmup = [["simulate", "--config", str(warm), "--threads", "1",
                        "--out", str(workdir / "warm.csv")]]
        self.outputs = [out, workdir / "sim_curves.csv"]

    def checks(self):
        return [
            ("sim.complete", self.check_complete),
            ("sim.sre_ratio", self.check_sre_ratio),
            ("sim.re_tau", self.check_re_tau),
            ("sim.smse_un", self.check_smse_un),
        ]

    @staticmethod
    def _table(out: RoundOutput) -> dict[tuple, dict[str, float]]:
        table = {}
        for row in out.rows("sim.csv"):
            key = (int(row["n"]), int(row["p"]), float(row["tau"]), row["estimator"])
            _require(key not in table, f"duplicate row {key}")
            table[key] = {c: float(row[c]) for c in ("smse", "sre", "sre_se", "n_retry")}
        return table

    def check_complete(self, out: RoundOutput) -> None:
        table = self._table(out)
        expected = {(n, p, t, e) for n in SIM_N for p in SIM_P for t in SIM_TAU
                    for e in ("RE", "JSE", "PJSE", "PTE")}
        _require(set(table) == expected, f"table rows {sorted(set(table) ^ expected)[:4]} differ")
        for key, vals in table.items():
            _require(all(np.isfinite(v) for v in vals.values()), f"non-finite value in {key}")
        curves = {(int(r["n"]), int(r["p"]), float(r["tau"]), r["estimator"]): float(r["sre"])
                  for r in out.rows("sim_curves.csv")}
        _require(curves == {k: v["sre"] for k, v in table.items()},
                 "curves file disagrees with the table's sre column")

    def check_sre_ratio(self, out: RoundOutput) -> None:
        # Every row carries smse_est and sre = smse_UN / smse_est, so
        # sre * smse must give one smse_UN per grid point.
        table = self._table(out)
        for n in SIM_N:
            for p in SIM_P:
                for t in SIM_TAU:
                    un = [table[(n, p, t, e)]["sre"] * table[(n, p, t, e)]["smse"]
                          for e in ("RE", "JSE", "PJSE", "PTE")]
                    _require(all(_close(u, un[0], 1e-9) for u in un),
                             f"(n={n}, p={p}, tau={t}): sre*smse gives SMSE(UN) {un}")

    def check_re_tau(self, out: RoundOutput) -> None:
        table = self._table(out)
        for n in SIM_N:
            for p in SIM_P:
                low, high = table[(n, p, 0.0, "RE")]["sre"], table[(n, p, 1.0, "RE")]["sre"]
                _require(low > 1.0, f"(n={n}, p={p}): SRE(RE) = {low} at tau = 0, want > 1")
                _require(high < 1.0, f"(n={n}, p={p}): SRE(RE) = {high} at tau = 1, want < 1")

    def check_smse_un(self, out: RoundOutput) -> None:
        # At n = 200 the unrestricted SMSE must be near its first-order value
        # E[tr((X'VX)^-1)] over random designs.  The band is about five Monte
        # Carlo standard errors of an 80-replication mean of the squared error.
        table = self._table(out)
        n = max(SIM_N)
        for p in SIM_P:
            smse_un = np.mean([table[(n, p, t, "RE")]["sre"] * table[(n, p, t, "RE")]["smse"]
                               for t in SIM_TAU])
            expected = oracle.mean_inverse_info_trace(n, p, SIM_ORACLE_DRAWS, seed=20240101)
            ratio = smse_un / expected
            _require(SIM_SMSE_BAND[0] <= ratio <= SIM_SMSE_BAND[1],
                     f"(n={n}, p={p}): SMSE(UN) {smse_un:.5g} is {ratio:.3f} x the "
                     f"first-order value {expected:.5g}")


# --- bootstrap ----------------------------------------------------------------

BOOT_ROWS = 1000
BOOT_BETA = np.array([0.4, 0.0, 0.5, 0.0, 0.3])
BOOT_RESAMPLE = 50
BOOT_REPLICATIONS = 300


class Bootstrap(Workload):
    """Pairs bootstrap on four covariates with a true two-row restriction."""

    name = "bootstrap"

    def __init__(self, workdir: Path, seed: int):
        rng = np.random.default_rng([seed, 2])
        Z = rng.standard_normal((BOOT_ROWS, BOOT_BETA.size - 1))
        X = np.column_stack([np.ones(BOOT_ROWS), Z])
        y = oracle.bell_counts(oracle.lambert_w(np.exp(X @ BOOT_BETA)), rng)
        data = workdir / "counts.csv"
        names = _write_counts_csv(data, Z, y)
        self.H = np.zeros((2, 5))
        self.H[0, 1] = self.H[1, 3] = 1.0
        rest = _write(workdir / "restriction.txt", _restriction_text(self.H, np.zeros(2)))
        self.data = data
        out = workdir / "bre.csv"
        common = ["bootstrap", "--data", str(data), "--response", "y", "--covariates",
                  ",".join(names), "--restriction", str(rest),
                  "--resample-size", str(BOOT_RESAMPLE), "--seed", str(seed)]
        self.ops = [[*common, "--replications", str(BOOT_REPLICATIONS), "--out", str(out)]]
        self.warmup = [[*common, "--replications", "5", "--out", str(workdir / "warm.csv")]]
        self.outputs = [out]

    def checks(self):
        return [
            ("boot.estimators", self.check_estimators),
            ("boot.bre_un", self.check_bre_un),
            ("boot.bre_re", self.check_bre_re),
            ("boot.full_fit", self.check_full_fit),
            ("boot.f_stat", self.check_f_stat),
        ]

    def _by_estimator(self, out: RoundOutput, column: str) -> dict[str, list[float]]:
        vals: dict[str, list[float]] = {}
        for row in out.rows("bre.csv"):
            vals.setdefault(row["estimator"], []).append(float(row[column]))
        return vals

    @cached_property
    def mle(self) -> tuple[np.ndarray, np.ndarray]:
        """Independent maximiser of the full-sample likelihood and its information."""
        X, y = _read_data(self.data)
        beta = oracle.bell_mle(X, y)
        return beta, oracle.score_and_info(X, y, beta)[1]

    def check_estimators(self, out: RoundOutput) -> None:
        # Two restrictions: the James-Stein pair is undefined and must be absent.
        est = self._by_estimator(out, "estimate")
        _require(list(est) == ["UN", "RE", "PTE"], f"estimators {list(est)}, want UN, RE, PTE")
        _require(all(len(v) == BOOT_BETA.size for v in est.values()), "wrong coefficient count")

    def check_bre_un(self, out: RoundOutput) -> None:
        bre = self._by_estimator(out, "bre")["UN"]
        _require(all(b == 1.0 for b in bre), f"BRE(UN) = {bre}, want 1")

    def check_bre_re(self, out: RoundOutput) -> None:
        bre = self._by_estimator(out, "bre")["RE"][0]
        _require(bre > 1.0, f"BRE(RE) = {bre} under a true restriction, want > 1")

    def check_full_fit(self, out: RoundOutput) -> None:
        beta = np.array(self._by_estimator(out, "estimate")["UN"])
        mle, _ = self.mle
        _require(np.allclose(beta, mle, rtol=1e-7, atol=1e-7),
                 f"full-sample UN {beta} differs from the independent maximiser {mle}")

    def check_f_stat(self, out: RoundOutput) -> None:
        found = re.search(r"F_n = (\S+)", out.stdout[0])
        _require(found is not None, "no F_n in the printed output")
        mle, info = self.mle
        want = oracle.wald(mle, info, self.H, np.zeros(2))
        got = float(found.group(1))
        _require(_close(got, want, 1e-6, 1e-9), f"printed F_n = {got}, Wald at the MLE = {want}")


# --- theory -------------------------------------------------------------------

# Noncentralities from 0 into the thousands; the cost of one evaluation grows
# with delta through the Poisson mixture.  The grid stops at 1500: from about
# 2500 up, special_fn._poisson_weights can fail to reach its mass target
# through rounding, depending on the last bits of delta (see CHANGES.md).
THEORY_DELTAS = (0, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80,
                 100, 120, 150, 200, 250, 300, 400, 500, 600, 700, 800, 900, 1000, 1100,
                 1200, 1300, 1400, 1500)
THEORY_SHAPES = ((5, 3), (7, 5), (4, 2))  # (k, r) of each restriction geometry
THEORY_JSE_DELTAS = (2, 20, 200, 1500)
THEORY_PTE_DELTAS = (0.5, 2, 8, 20)
THEORY_ALPHA = 0.05


def _bock_ratio(H: np.ndarray, F: np.ndarray) -> float:
    """tr / largest eigenvalue of the nonzero spectrum of kappa0 = F^-1 H' M^-1 H F^-1.

    The James-Stein factor shrinks in the metric of M = H F^-1 H' while the
    AMSE trace weighs errors unweighted, so JSE is below UN in trace at every
    delta only when this ratio is at least (r + 2) / 2 (Bock, 1975, Ann.
    Statist. 3:209).  Random geometries break it often; they are redrawn.
    """
    f_inv = np.linalg.inv(F)
    m = H @ f_inv @ H.T
    eig = np.linalg.eigvals(np.linalg.solve(m, H @ f_inv @ f_inv @ H.T)).real
    return float(eig.sum() / eig.max())


class Theory(Workload):
    """Asymptotic bias and AMSE curves for three random restriction geometries
    with random non-identity information."""

    name = "theory"

    def __init__(self, workdir: Path, seed: int):
        rng = np.random.default_rng([seed, 3])
        grid = ",".join(format(d, "g") for d in THEORY_DELTAS)
        self.geometries = []
        self.ops = []
        self.outputs = []
        for i, (k, r) in enumerate(THEORY_SHAPES):
            while True:
                H = rng.integers(-2, 3, size=(r, k)).astype(float)
                A = rng.standard_normal((k, k))
                F = A @ A.T / k + 0.5 * np.eye(k)
                if np.linalg.matrix_rank(H) == r and (r < 3 or _bock_ratio(H, F) >= (r + 2) / 2):
                    break
            direction = rng.standard_normal(r)
            rest = _write(workdir / f"restriction{i}.txt", _restriction_text(H, np.zeros(r)))
            fisher = workdir / f"fisher{i}.csv"
            _write(fisher, "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in F))
            out = workdir / f"theory{i}.csv"
            self.geometries.append((H, F, direction))
            self.ops.append(self._argv(rest, fisher, grid, direction, out))
            self.outputs.append(out)
            if i == 0:
                self.warmup = [self._argv(rest, fisher, "0,1,50", direction, workdir / "warm.csv")]

    @staticmethod
    def _argv(rest: Path, fisher: Path, grid: str, direction: np.ndarray, out: Path) -> list[str]:
        return ["theory", "--restriction", str(rest), "--fisher", str(fisher),
                "--alpha", str(THEORY_ALPHA), "--delta-grid", grid,
                # "=" keeps a leading minus sign from reading as an option.
                "--direction=" + ",".join(format(v, ".17g") for v in direction), "--out", str(out)]

    def checks(self):
        return [
            ("theory.complete", self.check_complete),
            ("theory.un_trace", self.check_un_trace),
            ("theory.re_affine", self.check_re_affine),
            ("theory.js_order", self.check_js_order),
            ("theory.bias_factors", self.check_bias_factors),
        ]

    def _curves(self, out: RoundOutput, i: int) -> dict[tuple[float, str], tuple[float, float]]:
        table = {}
        for row in out.rows(f"theory{i}.csv"):
            key = (float(row["delta"]), row["estimator"])
            _require(key not in table, f"geometry {i}: duplicate row {key}")
            table[key] = (float(row["bias_norm"]), float(row["amse_trace"]))
        return table

    @staticmethod
    def _estimators(r: int) -> tuple[str, ...]:
        return ("UN", "RE", "JSE", "PJSE", "PTE") if r >= 3 else ("UN", "RE", "PTE")

    def _projection(self, i: int):
        """tr(F^-1), tr(kappa0) and |kappa u| for the unit drift u of geometry i."""
        H, F, direction = self.geometries[i]
        f_inv = np.linalg.inv(F)
        m = H @ f_inv @ H.T
        kappa = f_inv @ H.T @ np.linalg.inv(m)
        unit = direction / np.sqrt(direction @ np.linalg.solve(m, direction))
        return np.trace(f_inv), np.trace(kappa @ H @ f_inv), float(np.linalg.norm(kappa @ unit))

    def check_complete(self, out: RoundOutput) -> None:
        for i, (H, _, _) in enumerate(self.geometries):
            table = self._curves(out, i)
            want = {(float(d), e) for d in THEORY_DELTAS for e in self._estimators(H.shape[0])}
            _require(set(table) == want, f"geometry {i}: rows {sorted(set(table) ^ want)[:4]}")
            _require(all(np.isfinite(v).all() for v in table.values()),
                     f"geometry {i}: non-finite values")

    def check_un_trace(self, out: RoundOutput) -> None:
        for i in range(len(self.geometries)):
            tr_finv = self._projection(i)[0]
            for d in THEORY_DELTAS:
                bias, trace = self._curves(out, i)[(float(d), "UN")]
                _require(bias == 0.0 and _close(trace, tr_finv, 1e-9),
                         f"geometry {i}, delta {d}: UN trace {trace}, tr(F^-1) = {tr_finv}")

    def check_re_affine(self, out: RoundOutput) -> None:
        # AMSE(RE) = F^-1 - kappa0 + delta (kappa u)(kappa u)'.
        for i in range(len(self.geometries)):
            tr_finv, tr_k0, ku = self._projection(i)
            table = self._curves(out, i)
            for d in THEORY_DELTAS:
                trace = table[(float(d), "RE")][1]
                want = tr_finv - tr_k0 + d * ku * ku
                _require(_close(trace, want, 1e-8),
                         f"geometry {i}, delta {d}: RE trace {trace}, affine value {want}")

    def check_js_order(self, out: RoundOutput) -> None:
        for i, (H, _, _) in enumerate(self.geometries):
            if H.shape[0] < 3:
                continue
            table = self._curves(out, i)
            for d in THEORY_DELTAS:
                un, jse, pjse = (table[(float(d), e)][1] for e in ("UN", "JSE", "PJSE"))
                slack = 1e-11 * un
                _require(pjse <= jse + slack and jse <= un + slack,
                         f"geometry {i}, delta {d}: traces PJSE {pjse}, JSE {jse}, UN {un}")

    def check_bias_factors(self, out: RoundOutput) -> None:
        # |bias| = factor * sqrt(delta) |kappa u|, with factor (r-2) E[1/chi2_{r+2}(delta)]
        # for JSE and P(chi2_{r+2}(delta) <= chi2_r critical value) for PTE.
        for i, (H, _, _) in enumerate(self.geometries):
            r = H.shape[0]
            ku = self._projection(i)[2]
            table = self._curves(out, i)
            crit = oracle.chi2_crit(THEORY_ALPHA, r)
            for d in THEORY_PTE_DELTAS:
                want = oracle.ncx2_cdf(crit, r + 2, d) * np.sqrt(d) * ku
                got = table[(float(d), "PTE")][0]
                _require(_close(got, want, 1e-6), f"geometry {i}, delta {d}: PTE bias {got} vs {want}")
            if r < 3:
                continue
            for d in THEORY_JSE_DELTAS:
                want = (r - 2) * oracle.ncx2_inv_mean(r + 2, d) * np.sqrt(d) * ku
                got = table[(float(d), "JSE")][0]
                _require(_close(got, want, 1e-6), f"geometry {i}, delta {d}: JSE bias {got} vs {want}")


# --- fit-large ----------------------------------------------------------------

# (rows, covariates, restricted slope indices) of each dataset.
FIT_SHAPES = ((100_000, 6, (2, 4, 6)), (100_000, 3, (1, 3)))
FIT_WARMUP_ROWS = 2_000
FIT_SE_BAND = 5.0


class FitLarge(Workload):
    """The full estimator suite on large CSVs: ingestion plus a few big fits."""

    name = "fit-large"

    def __init__(self, workdir: Path, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.ops = []
        self.outputs = []
        self.datasets = []
        for i, (n, p, zero) in enumerate(FIT_SHAPES):
            beta = np.concatenate([[0.5], rng.uniform(0.2, 0.6, p) * rng.choice([-1, 1], p)])
            beta[list(zero)] = 0.0
            Z = 0.5 * rng.standard_normal((n, p))
            X = np.column_stack([np.ones(n), Z])
            y = oracle.bell_counts(oracle.lambert_w(np.exp(X @ beta)), rng)
            data = workdir / f"large{i}.csv"
            names = _write_counts_csv(data, Z, y)
            H = np.zeros((len(zero), p + 1))
            for row, j in enumerate(zero):
                H[row, j] = 1.0
            rest = _write(workdir / f"restriction{i}.txt", _restriction_text(H, np.zeros(len(zero))))
            out = workdir / f"estimate{i}.csv"
            self.datasets.append((data, beta, H))
            self.ops.append(self._argv(data, names, rest, out))
            self.outputs.append(out)
            if i == 0:
                small = workdir / "warm.csv"
                head = data.read_text(encoding="utf-8").splitlines()[: FIT_WARMUP_ROWS + 1]
                _write(small, "\n".join(head) + "\n")
                self.warmup = [self._argv(small, names, rest, workdir / "warm_out.csv")]

    @staticmethod
    def _argv(data: Path, names: list[str], rest: Path, out: Path) -> list[str]:
        return ["estimate", "--data", str(data), "--response", "y", "--covariates",
                ",".join(names), "--restriction", str(rest), "--out", str(out)]

    def checks(self):
        return [
            ("fit.estimators", self.check_estimators),
            ("fit.restricted", self.check_restricted),
            ("fit.score", self.check_score),
            ("fit.truth", self.check_truth),
        ]

    def _estimates(self, out: RoundOutput, i: int) -> dict[str, np.ndarray]:
        est: dict[str, list[float]] = {}
        for row in out.rows(f"estimate{i}.csv"):
            est.setdefault(row["estimator"], []).append(float(row["estimate"]))
        return {k: np.array(v) for k, v in est.items()}

    @cached_property
    def arrays(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [_read_data(data) for data, _, _ in self.datasets]

    def check_estimators(self, out: RoundOutput) -> None:
        for i, (_, beta, H) in enumerate(self.datasets):
            est = self._estimates(out, i)
            want = ["UN", "RE", "JSE", "PJSE", "PTE"] if H.shape[0] >= 3 else ["UN", "RE", "PTE"]
            _require(list(est) == want, f"dataset {i}: estimators {list(est)}, want {want}")
            _require(all(v.shape == beta.shape for v in est.values()),
                     f"dataset {i}: wrong coefficient count")

    def check_restricted(self, out: RoundOutput) -> None:
        for i, (_, _, H) in enumerate(self.datasets):
            gap = np.max(np.abs(H @ self._estimates(out, i)["RE"]))
            _require(gap <= 1e-9, f"dataset {i}: RE misses H beta = 0 by {gap:.3g}")

    def check_score(self, out: RoundOutput) -> None:
        # Newton decrement S' F^-1 S of the Bell score at the reported fit.
        for i in range(len(self.datasets)):
            X, y = self.arrays[i]
            score, info = oracle.score_and_info(X, y, self._estimates(out, i)["UN"])
            decrement = float(score @ np.linalg.solve(info, score))
            _require(decrement <= 1e-6, f"dataset {i}: score decrement {decrement:.3g} at UN")

    def check_truth(self, out: RoundOutput) -> None:
        for i, (_, beta, _) in enumerate(self.datasets):
            X, y = self.arrays[i]
            un = self._estimates(out, i)["UN"]
            se = np.sqrt(np.diag(np.linalg.inv(oracle.score_and_info(X, y, un)[1])))
            z = np.abs(un - beta) / se
            _require(np.all(z <= FIT_SE_BAND),
                     f"dataset {i}: UN is {np.max(z):.2f} standard errors from the truth")


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SimGrid, Bootstrap, Theory, FitLarge)
}
