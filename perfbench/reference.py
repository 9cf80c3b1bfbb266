"""Independent references and the output checks built on them.

Nothing here imports multigini: every reference is computed with numpy
from the clean values the generator wrote, by a route other than the
program's (numpy eigh for the correlation whitening, a sorted-rank formula
for one-dimensional Gini indices, a blocked numpy double sum for the exact
p=2 index, and a sphere-projection average for the sampled p=2 index).
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9          # exact outputs against the references
PAIRS_SE_FACTOR = 5.0   # sampled output: |value - ref| <= 5 * printed SE
PROJECTION_DIRECTIONS = 256
_BLOCK_ROWS = 128
_PROJECTION_BATCH = 16


def rank_gini(v: np.ndarray) -> float:
    """Gini index sum_{a,b}|v_a - v_b| / (2 n^2 |mean|) by the sorted-rank formula."""
    s = np.sort(v)
    n = s.size
    coef = 2.0 * np.arange(1, n + 1) - n - 1
    return float(coef @ s) / (n * abs(float(s.sum())))


def whiten(x: np.ndarray):
    """Correlation whitening via numpy eigh; returns (whitened points, whitened mean)."""
    mean = x.mean(axis=0)
    centred = x - mean
    cov = centred.T @ centred / x.shape[0]
    sd = np.sqrt(np.diag(cov))
    vals, vecs = np.linalg.eigh(cov / np.outer(sd, sd))
    w = (vecs * vals**-0.5) @ vecs.T / sd[None, :]
    return x @ w.T, w @ mean


def g1_decomposition(x: np.ndarray) -> dict:
    """G_1 as the |m*|-weighted mean of the whitened components' rank Ginis."""
    y, m_star = whiten(x)
    weights = np.abs(m_star) / np.abs(m_star).sum()
    components = np.array([rank_gini(y[:, i]) for i in range(y.shape[1])])
    return {"value": float(weights @ components), "weights": weights.tolist(),
            "normalizer": float(np.abs(m_star).sum())}


def g2_double_sum(x: np.ndarray) -> dict:
    """G_2 as the full double sum of whitened Euclidean pair distances, in row blocks."""
    y, m_star = whiten(x)
    n = y.shape[0]
    total = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        diff = y[start:start + _BLOCK_ROWS, None, :] - y[None, :, :]
        total += float(np.sqrt(np.einsum("abk,abk->ab", diff, diff)).sum())
    normalizer = float(np.linalg.norm(m_star))
    return {"value": total / (n * n) / (2.0 * normalizer), "normalizer": normalizer}


def fibonacci_sphere(count: int) -> np.ndarray:
    """Nearly uniform unit vectors on the 2-sphere."""
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * np.arange(count)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def g2_projection(x: np.ndarray) -> dict:
    """G_2 for d=3 from ||v||_2 = E_u|u.v| / E|u_1| with E|u_1| = 1/2.

    The mean whitened pair distance is twice the direction-average of the
    one-dimensional mean absolute difference of the projections.
    """
    y, m_star = whiten(x)
    if y.shape[1] != 3:
        raise ValueError("the projection reference is written for d=3")
    n = y.shape[0]
    coef = 2.0 * np.arange(1, n + 1) - n - 1
    directions = fibonacci_sphere(PROJECTION_DIRECTIONS)
    rows = np.ascontiguousarray(y.T)
    total = 0.0
    for start in range(0, PROJECTION_DIRECTIONS, _PROJECTION_BATCH):
        proj = directions[start:start + _PROJECTION_BATCH] @ rows
        proj.sort(axis=1)
        total += float((proj @ coef).sum())
    # sum_{a,b}|z_a - z_b| = 2 coef @ sorted(z); mean over n^2 pairs and directions
    mean_abs_diff = 2.0 * total / (n * n) / PROJECTION_DIRECTIONS
    normalizer = float(np.linalg.norm(m_star))
    return {"value": 2.0 * mean_abs_diff / (2.0 * normalizer), "normalizer": normalizer}


def report_reference(workload) -> dict:
    """Per-group and pooled rows of a p=1 report, keyed by group label."""
    rows = {}
    for label in sorted(set(workload.groups.tolist())):
        rows[label] = _report_row(workload.clean[workload.groups == label])
    rows["All"] = _report_row(workload.clean)
    return rows


def _report_row(x: np.ndarray) -> dict:
    row = g1_decomposition(x)
    row["n"] = x.shape[0]
    row["gini"] = [rank_gini(x[:, j]) for j in range(x.shape[1])]
    return row


def build_reference(workload) -> dict:
    if workload.name == "report-panel":
        return {"rows": report_reference(workload)}
    if workload.name == "gini-exact":
        return {"p1": g1_decomposition(workload.clean), "p2": g2_double_sum(workload.clean)}
    return {"p2": g2_projection(workload.clean)}


class Mismatch(Exception):
    """An output fell outside its reference tolerance."""


class Checker:
    """Compares one op's outputs with the references.

    ``tamper`` deliberately corrupts what is compared, to prove that the
    checks can fail: "value" moves the first checked value of every op by
    ten times its tolerance, "dropped" expects one more dropped row than
    the generator injected.
    """

    def __init__(self, workload, reference: dict, tamper: str | None = None):
        self.workload = workload
        self.reference = reference
        self.tamper = tamper

    def _close(self, label: str, got, want: float, tol: float) -> None:
        if got is None:
            raise Mismatch(f"{label}: missing")
        got = float(got)
        if self.tamper == "value" and not self._tampered:
            got += 10.0 * tol
            self._tampered = True
        if not abs(got - want) <= tol:
            raise Mismatch(f"{label}: {got!r} vs reference {want!r} (tolerance {tol:.3e})")

    def _rel(self, label: str, got, want: float) -> None:
        self._close(label, got, want, REL_TOL * abs(want))

    def _dropped(self, stderr: str) -> None:
        expected = self.workload.dirty_rows + (self.tamper == "dropped")
        reported = 0
        for line in stderr.splitlines():
            if line.startswith("dropped rows:"):
                reported = int(line.split(":", 1)[1])
        if reported != expected:
            raise Mismatch(f"dropped rows {reported}, expected {expected}")

    def check(self, outputs: list) -> None:
        """Raise Mismatch unless every (stdout, stderr) pair of the op is correct."""
        self._tampered = False
        for stdout, stderr in outputs:
            self._dropped(stderr)
        if self.workload.name == "report-panel":
            self._check_report(json.loads(outputs[0][0]))
        elif self.workload.name == "gini-exact":
            self._check_exact(json.loads(outputs[0][0]), self.reference["p1"], 1.0)
            self._check_exact(json.loads(outputs[1][0]), self.reference["p2"], 2.0)
        else:
            self._check_pairs(json.loads(outputs[0][0]))

    def _check_report(self, report: dict) -> None:
        want_rows = self.reference["rows"]
        got_groups = [row["group"] for row in report["rows"]]
        if got_groups != list(want_rows):
            raise Mismatch(f"report groups {got_groups[:3]}... differ from the generated groups")
        metrics = self.workload.columns
        for row in report["rows"]:
            want = want_rows[row["group"]]
            label = f"group {row['group']}"
            if row["error"] is not None or row["n"] != want["n"]:
                raise Mismatch(f"{label}: n={row['n']} error={row['error']!r}, want n={want['n']}")
            self._rel(f"{label} g1", row["g1"], want["value"])
            for j, name in enumerate(metrics):
                self._rel(f"{label} gini {name}", row["gini"][name], want["gini"][j])
                self._rel(f"{label} weight {name}", row["weights"][name], want["weights"][j])

    def _check_exact(self, result: dict, want: dict, p: float) -> None:
        if result["p"] != p or result["estimator"] != "exact":
            raise Mismatch(f"expected an exact p={p:g} result, got {result['p']} {result['estimator']}")
        self._rel(f"G_{p:g}", result["value"], want["value"])
        self._rel(f"G_{p:g} normalizer", result["normalizer"], want["normalizer"])
        if p == 1.0:
            for j, (got, ref) in enumerate(zip(result["weights"], want["weights"])):
                self._rel(f"G_1 weight {j}", got, ref)

    def _check_pairs(self, result: dict) -> None:
        want = self.reference["p2"]
        if result["estimator"] != "pairs" or result["pair_count"] is None:
            raise Mismatch("expected a pair-sampled result")
        se = float(result["std_error"])
        self._close("G_2 (pairs)", result["value"], want["value"], PAIRS_SE_FACTOR * se)
        self._rel("G_2 normalizer", result["normalizer"], want["normalizer"])
