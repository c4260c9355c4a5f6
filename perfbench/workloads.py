"""The four benchmark workloads: seeded inputs, the timed operations and the
output checks that run outside the timed region.

Inputs are made by this file's own numpy code from the benchmark seed, never
by palmpat's samplers, so a deliberate change to a palmpat random stream does
not change what the benchmark feeds it. Each workload writes its inputs to a
directory (``generate``) and writes what the output checks compare with
(``prepare``, in the harness process). The measured process then loads the
inputs for the timed operations (``load``); one batch is ``n_ops`` operations
on those fixed inputs.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np

import palmpat
import palmpat.cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _load_oracles():
    """The repository's brute-force references (tests/oracles.py)."""
    spec = importlib.util.spec_from_file_location("palmpat_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0], [[float(f) for f in line.split(",")] for line in lines[1:] if line]


def run_cli(argv):
    """One ``palmpat`` CLI call in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = palmpat.cli.main([str(a) for a in argv])
    return code, buf.getvalue()


class Tally:
    """Attempted operations and the problems of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def attempt(self, label, fn):
        """Count one operation; an exception or a returned problem fails it."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception:
            problems = [traceback.format_exc().strip().splitlines()[-1]]
            traceback.print_exc()
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems))


def bimodal_points(rng, n, side, p, sigma):
    """The paper's reproduction model on [0, side]^2, sampled point by point:
    uniform parent, then a Gaussian offspring (resampled into the window)
    with probability p, otherwise a uniform point."""
    pts = np.empty((n, 2))
    pts[0] = rng.uniform(0.0, side, 2)
    for i in range(1, n):
        if rng.random() < p:
            parent = pts[rng.integers(i)]
            while True:
                cand = parent + sigma * rng.standard_normal(2)
                if 0.0 <= cand.min() and cand.max() <= side:
                    break
            pts[i] = cand
        else:
            pts[i] = rng.uniform(0.0, side, 2)
    return pts


class Workload:
    name = ""
    stream = 0  # keeps the workloads' input streams apart for one seed
    n_ops = 1
    sizes: dict = {}

    def __init__(self, workdir, smoke=False):
        self.dir = Path(workdir)
        self.size = self.sizes["smoke" if smoke else "full"]
        self.out = self.dir / "out"

    def generate(self, seed: int) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "params.json").write_text(json.dumps({"seed": seed}))
        self._generate(np.random.default_rng([seed, self.stream]))

    @functools.cached_property
    def seed(self) -> int:
        return json.loads((self.dir / "params.json").read_text())["seed"]

    def input_sha256(self) -> str:
        h = hashlib.sha256()
        for path in sorted(p for p in self.dir.iterdir() if p.is_file()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def prepare(self) -> None:
        """Write, under ``expected/``, what the output checks compare with.
        Oracle work runs here, in the harness process, so that it adds
        nothing to the measured process's memory or time."""

    def load(self) -> None:
        """Read the inputs into the state the operations need."""

    def golden(self, name):
        """Output hashes recorded for this seed at full size, if any."""
        if self.size is not self.sizes["full"] or not GOLDEN_PATH.exists():
            return None
        return json.loads(GOLDEN_PATH.read_text()).get(self.name, {}).get(str(self.seed), {}).get(name)


class FitSite(Workload):
    """CLI ``fit`` on one clustered site: the paper's headline analysis."""

    name = "fit-site"
    stream = 1
    sizes = {
        "full": dict(n=1500, side=3000.0, p="0.4:0.6:0.1", sigma="50:70:10",
                     cells=(3, 3), trials=5, n_ref=8000),
        "smoke": dict(n=150, side=1000.0, p="0.4:0.6:0.1", sigma="30:40:10",
                      cells=(3, 2), trials=2, n_ref=600),
    }

    def _generate(self, rng):
        pts = bimodal_points(rng, self.size["n"], self.size["side"], 0.5, 60.0)
        write_csv(self.dir / "points.csv", "x,y", pts.tolist())

    def argv(self, out_dir):
        s = self.size
        side = s["side"]
        return ["fit", "--points", self.dir / "points.csv", "--window", 0, 0, side, side,
                "--p", s["p"], "--sigma", s["sigma"], "--trials", s["trials"],
                "--n-ref", s["n_ref"], "--seed", self.seed, "--out-dir", out_dir]

    def op(self, i):
        return run_cli(self.argv(self.out))

    def check(self, i, output):
        code, stdout = output
        if code != 0:
            return [f"fit exited with {code}"]
        return check_fit_table(self.out / "fit_table.csv", stdout, self.size)


def check_fit_table(path, stdout, size):
    """Invariants of a fit table that hold for any simulator stream layout."""
    header, rows = read_csv(path)
    n_p, n_sigma = size["cells"]
    trials = size["trials"]
    problems = []
    want = ",".join(["p", "sigma", "d_total"] + [f"d_{i}" for i in range(1, trials + 1)])
    if header != want:
        problems.append(f"fit table header {header!r}")
    if len(rows) != n_p * n_sigma or any(len(r) != trials + 3 for r in rows):
        return problems + [f"fit table has {len(rows)} rows, want {n_p * n_sigma}"]
    if not all(math.isfinite(v) for r in rows for v in r):
        problems.append("fit table has a non-finite value")
    if any(r[2] != sum(r[3:]) for r in rows):
        problems.append("d_total differs from the sum of d_i")
    best = min(range(len(rows)), key=lambda k: (rows[k][2], k))  # first strict minimum
    want_line = "p*={!r} sigma*={!r} d_min={!r}".format(*rows[best][:3])
    if want_line not in stdout.splitlines():
        problems.append(f"fit reported {stdout.strip().splitlines()[-1:]}, want {want_line!r}")
    return problems


class EnvelopeBatch(Workload):
    """Library ``envelope`` (G, m=199) over a sequence of small patterns."""

    name = "envelope-batch"
    stream = 2
    sizes = {
        "full": dict(n=500, side=1000.0, patterns=10, m=199),
        "smoke": dict(n=60, side=300.0, patterns=4, m=19),
    }

    @property
    def n_ops(self):
        return self.size["patterns"]

    def _generate(self, rng):
        s = self.size
        coords = [
            rng.uniform(0.0, s["side"], (s["n"], 2)) if i % 2 == 0
            else bimodal_points(rng, s["n"], s["side"], 0.9, 10.0)
            for i in range(s["patterns"])
        ]
        np.save(self.dir / "patterns.npy", np.stack(coords))

    def load(self):
        side = self.size["side"]
        window = palmpat.Window(0.0, 0.0, side, side)
        self.coords = np.load(self.dir / "patterns.npy")
        self.patterns = [palmpat.PointPattern(window, c) for c in self.coords]
        self.grid = palmpat.DistanceGrid.default(window)
        self.observed_g = None

    def prepare(self):
        """The observed G of every pattern, from tests/oracles.py::brute_g_values."""
        self.load()
        oracles = _load_oracles()
        (self.dir / "expected").mkdir(exist_ok=True)
        np.save(self.dir / "expected" / "observed_g.npy",
                np.stack([oracles.brute_g_values(c, self.grid.values) for c in self.coords]))

    def op(self, i):
        return palmpat.envelope(self.patterns[i], self.grid, "G", m=self.size["m"],
                                seed=self.seed * 1000 + i)

    def check(self, i, result):
        if self.observed_g is None:
            self.observed_g = np.load(self.dir / "expected" / "observed_g.npy")
        m = self.size["m"]
        problems = []
        p = result.p_values
        if not (np.all(np.isfinite(p)) and np.all(p >= 1.0 / (m + 1)) and np.all(p <= 1.0)):
            problems.append(f"pattern {i}: p-value outside [1/(m+1), 1]")
        lo, mean, hi = result.lo95, result.sim_mean, result.hi95
        # Where fewer than 2.5% of the simulations leave a saturated G (0 or
        # 1), both quantiles sit on that value while the mean lies just off
        # it, so the mean is checked only where the band has width.
        wide = lo < hi
        if not (np.all(lo <= hi) and np.all(lo[wide] <= mean[wide])
                and np.all(mean[wide] <= hi[wide])):
            problems.append(f"pattern {i}: band does not satisfy lo95 <= mean <= hi95")
        if not np.array_equal(result.observed, self.observed_g[i]):
            problems.append(f"pattern {i}: observed G differs from brute_g_values")
        return problems


def brute_nms(boxes, threshold):
    """tests/oracles.py::brute_nms on an (n, 5) array: the same visit order
    and IoU arithmetic, with each kept box compared with all later boxes at
    once. Returns the kept rows in visit order."""
    n = len(boxes)
    boxes = boxes[np.lexsort((np.arange(n), -boxes[:, 4]))]
    x0, y0, x1, y1 = boxes[:, :4].T
    area = (x1 - x0) * (y1 - y0)
    alive = np.ones(n, dtype=bool)
    kept = []
    for i in range(n):
        if not alive[i]:
            continue
        kept.append(i)
        j = slice(i + 1, None)
        inter = (np.maximum(0.0, np.minimum(x1[i], x1[j]) - np.maximum(x0[i], x0[j]))
                 * np.maximum(0.0, np.minimum(y1[i], y1[j]) - np.maximum(y0[i], y0[j])))
        with np.errstate(invalid="ignore", divide="ignore"):
            overlap = np.where(inter == 0.0, 0.0, inter / (area[i] + area[j] - inter))
        alive[j] &= overlap < threshold
    return boxes[kept]


class OracleChecked(Workload):
    """A CLI workload whose output files must equal, byte for byte, the files
    the harness renders from its own oracle, and the hashes recorded at the
    seed commit where this seed has a record."""

    def prepare(self):
        """expected/hashes.json: for each output file, the (source, SHA-256)
        pairs its hash must equal."""
        wants = {}
        for name, digest in self.oracle_outputs().items():
            wants[name] = [("the oracle output", digest)]
            recorded = self.golden(name)
            if recorded is not None:
                wants[name].append(("the hash recorded at the seed commit", recorded))
        (self.dir / "expected" / "hashes.json").write_text(json.dumps(wants))

    def load(self):
        self.wants = None

    def check(self, i, output):
        code, _ = output
        if code != 0:
            return [f"{self.name} exited with {code}"]
        if self.wants is None:
            self.wants = json.loads((self.dir / "expected" / "hashes.json").read_text())
        problems = []
        for name, wants in self.wants.items():
            got = sha256_file(self.out / name)
            problems += [f"{name} differs from {source}" for source, want in wants if got != want]
        return problems


class MergeTiles(OracleChecked):
    """CLI ``merge`` of overlapping tiles' crown detections: quadratic NMS."""

    name = "merge-tiles"
    stream = 3
    sizes = {
        "full": dict(crowns=700, side=2400, clusters=28, spread=160.0),
        "smoke": dict(crowns=60, side=1600, clusters=6, spread=80.0),
    }
    patch, stride = 800, 400

    def _generate(self, rng):
        s = self.size
        side = s["side"]
        parents = rng.uniform(0.0, side, (s["clusters"], 2))
        centres = parents[rng.integers(s["clusters"], size=s["crowns"])]
        centres = centres + s["spread"] * rng.standard_normal((s["crowns"], 2))
        half = rng.uniform(10.0, 25.0, s["crowns"])
        centres = np.clip(centres, half[:, None], side - half[:, None])
        lo, hi = centres - half[:, None], centres + half[:, None]
        rows = []
        tiles = range(0, side - self.patch + 1, self.stride)
        for r, oy in enumerate(tiles):
            for c, ox in enumerate(tiles):
                inside = ((lo[:, 0] >= ox) & (hi[:, 0] <= ox + self.patch)
                          & (lo[:, 1] >= oy) & (hi[:, 1] <= oy + self.patch))
                for k in np.flatnonzero(inside):
                    if rng.random() < 0.1:  # missed in this tile
                        continue
                    box = np.concatenate([lo[k] - (ox, oy), hi[k] - (ox, oy)])
                    box = np.clip(box + rng.normal(0.0, 1.5, 4), 0.0, self.patch).round(2)
                    rows.append([r, c, *box.tolist(), round(float(rng.uniform(0.05, 1.0)), 4)])
        write_csv(self.dir / "detections.csv",
                  "tile_row,tile_col,x_min,y_min,x_max,y_max,confidence", rows)

    def op(self, i):
        return run_cli(["merge", "--detections", self.dir / "detections.csv",
                        "--patch-size", self.patch, "--stride", self.stride,
                        "--out-dir", self.out])

    def oracle_outputs(self):
        """SHA-256 of merged_boxes.csv and merged_centers.csv rendered from brute_nms."""
        _, rows = read_csv(self.dir / "detections.csv")
        boxes = []
        for r, c, x0, y0, x1, y1, conf in rows:
            dx, dy = 0.0 + int(c) * self.stride, 0.0 + int(r) * self.stride
            boxes.append((x0 + dx, y0 + dy, x1 + dx, y1 + dy, conf))
        kept = brute_nms(np.array(boxes), 0.5)
        out = {}
        for name, header, vals in (
            ("merged_boxes.csv", "x_min,y_min,x_max,y_max,confidence", kept.tolist()),
            ("merged_centers.csv", "x,y",
             ((kept[:, :2] + kept[:, 2:4]) / 2.0).tolist()),
        ):
            path = self.dir / "expected" / name
            path.parent.mkdir(exist_ok=True)
            write_csv(path, header, vals)
            out[name] = sha256_file(path)
        return out


class CountSite(OracleChecked):
    """CLI ``count`` of labelled centres against detections at survey scale."""

    name = "count-site"
    stream = 4
    sizes = {
        "full": dict(labels=15_000, side=1100.0),
        "smoke": dict(labels=400, side=180.0),
    }
    radius = 5.0

    def _generate(self, rng):
        s = self.size
        labels = rng.uniform(0.0, s["side"], (s["labels"], 2)).round(3)
        recalled = labels[rng.random(s["labels"]) < 0.9]
        detected = recalled + rng.normal(0.0, 1.5, recalled.shape)
        false_pos = rng.uniform(0.0, s["side"], (s["labels"] // 20, 2))
        detected = np.concatenate([detected, false_pos]).round(3)
        detected = detected[rng.permutation(len(detected))]
        write_csv(self.dir / "labeled.csv", "x,y", labels.tolist())
        write_csv(self.dir / "detected.csv", "x,y", detected.tolist())

    def op(self, i):
        return run_cli(["count", "--detected", self.dir / "detected.csv",
                        "--labeled", self.dir / "labeled.csv", "--radius", self.radius,
                        "--out-dir", self.out])

    def oracle_outputs(self):
        """SHA-256 of count_report.csv rendered from greedy_match."""
        _, det = read_csv(self.dir / "detected.csv")
        _, lab = read_csv(self.dir / "labeled.csv")
        matched = greedy_match(det, lab, self.radius)
        shifts = np.array([d for d, _, _ in matched])
        n = len(matched)
        rows = [
            ["n_labeled", len(lab)], ["n_detected", len(det)], ["n_matched", n],
            ["accuracy", n / len(lab)], ["detected_rate", n / len(det)],
            ["shift_mean", float(shifts.mean())], ["shift_median", float(np.median(shifts))],
            ["shift_std", float(shifts.std(ddof=1))],
        ]
        path = self.dir / "expected" / "count_report.csv"
        path.parent.mkdir(exist_ok=True)
        write_csv(path, "metric,value", rows)
        return {"count_report.csv": sha256_file(path)}


def greedy_match(detected, labeled, radius):
    """All (distance, labelled, detected) pairs within the radius, taken
    nearest first, each point used once."""
    buckets: dict = {}
    for di, (x, y) in enumerate(detected):
        buckets.setdefault((math.floor(x / radius), math.floor(y / radius)), []).append(di)
    pairs = []
    for li, (lx, ly) in enumerate(labeled):
        bx, by = math.floor(lx / radius), math.floor(ly / radius)
        for cx in (bx - 1, bx, bx + 1):
            for cy in (by - 1, by, by + 1):
                for di in buckets.get((cx, cy), ()):
                    d = math.hypot(detected[di][0] - lx, detected[di][1] - ly)
                    if d <= radius:
                        pairs.append((d, li, di))
    pairs.sort()
    used_l, used_d, matched = set(), set(), []
    for d, li, di in pairs:
        if li not in used_l and di not in used_d:
            used_l.add(li)
            used_d.add(di)
            matched.append((d, li, di))
    return matched


WORKLOADS = {w.name: w for w in (FitSite, EnvelopeBatch, MergeTiles, CountSite)}
