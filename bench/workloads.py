"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs in `setup` (timed into setup_s), runs a
reduced copy of its steps in `warmup`, and exposes three timed steps.  A
step runs one part of the workload's pass and returns what it produced;
its `check` turns that into a list of failed operations and the `xi`
values it computed.  The package is always reached through module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

FT_POSSIBLE_XI = 0.312  # criterion 3: every preset below this at N = 50
WIGNER_SLACK = 1e-12  # rounding allowance on |W| <= 1/pi
CHANNEL_GAP = 1e-4  # criterion 6
OPTIMIZE_SLACK = 1e-9


class Step(NamedTuple):
    metric: str  # end-to-end metric name in BENCHMARK.json
    label: str  # what the step is, as named in bench/METRICS.md
    count: int  # operations the step attempts
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]
    repeat: int = 1  # runs in a row per pass, each one sample
    kernel: str = "mixed"  # reference kernel its time is scaled by (bench/calibration.py)


def cli_main(argv: list[str]) -> int:
    from gkpsq import cli

    return cli.main(argv)


def read_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    """Preamble lines and rows keyed by column name; '#' lines are preamble."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    preamble = [line[1:].strip() for line in lines if line.startswith("#")]
    body = [line for line in lines if line and not line.startswith("#")]
    return preamble, list(csv.DictReader(body))


def preamble_value(preamble: list[str], key: str) -> str | None:
    for line in preamble:
        for token in line.split():
            name, _, value = token.partition("=")
            if name == key:
                return value
    return None


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def setup(self) -> None:
        pass

    def setup_record(self) -> dict:
        """Values computed in set-up that the checks compare against."""
        return {}

    def warmup(self) -> None:
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def _cli_warm(self, argv: list[str]) -> None:
        code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"warm-up command {argv[0]} exited with {code}")


class Sweeps(Workload):
    name = "sweeps"

    GROUND = ["ground-sweep", "--topology", "q0", "q1", "s0", "s1", "hex", "--dims", "3", "5", "10", "20", "50"]
    WIGNER = ["wigner", "--topology", "q0", "--dims", "20", "--extent", "6", "--resolution", "81"]
    CLOSED = {
        "fidelity": ["fidelity-sweep", "--g", "0.05", "0.1", "0.2", "0.4", "--fidelity-grid", "0", "1", "101"],
        "channel": ["channel-sweep", "--eta", "1.0", "0.95", "0.9", "0.8", "--xi-in", "0", "2", "81"],
        "peaks": ["peaks-sweep", "--g", "0.05", "0.1", "0.2", "0.4", "--smax", "0", "1", "2", "3", "4", "5", "6"],
    }
    CLOSED_ROWS = {"fidelity": 4 * 101, "channel": 4 * 81, "peaks": 4 * 7}

    def warmup(self) -> None:
        self._cli_warm(["ground-sweep", "--topology", "q0", "--dims", "3", "50", "--output", self.path("warm.csv")])
        self._cli_warm(["wigner", "--dims", "5", "--resolution", "5", "--output", self.path("warm.csv")])
        for argv in self.CLOSED.values():
            self._cli_warm(argv + ["--output", self.path("warm.csv")])

    def steps(self) -> list[Step]:
        return [
            Step("stage1_s", "ground_sweep_s", 1, self._ground, self._check_ground, kernel="bulk"),
            Step("stage2_s", "wigner_s", 1, self._wigner, self._check_wigner, kernel="dispatch"),
            Step("stage3_s", "closed_form_sweeps_s", 3, self._closed, self._check_closed, repeat=5),
        ]

    def _ground(self):
        return cli_main(self.GROUND + ["--output", self.path("ground.csv")])

    def _check_ground(self, code):
        if code != 0:
            return [f"ground-sweep exited with {code}"], {}
        _, rows = read_csv(self.path("ground.csv"))
        table: dict[str, dict[int, float]] = {}
        for row in rows:
            table.setdefault(row["topology"], {})[int(row["N"])] = float(row["xi_min"])
        problems = []
        reference = REFERENCE["ground_xi_min"]
        for topology, ref in reference.items():
            got = table.get(topology, {})
            dims = sorted(got)
            values = [got[n] for n in dims]
            if dims != sorted(int(n) for n in ref):
                problems.append(f"{topology}: dimensions {dims}")
                continue
            if not _strictly_decreasing(values):
                problems.append(f"{topology}: xi_min not strictly decreasing {values}")
            if not got[50] < FT_POSSIBLE_XI:
                problems.append(f"{topology}: xi_min {got[50]!r} at N=50 not below {FT_POSSIBLE_XI}")
            for n, expected in ref.items():
                if not abs(got[int(n)] - expected) <= REFERENCE["xi_tolerance"]:
                    problems.append(f"{topology} N={n}: xi_min {got[int(n)]!r} != reference {expected!r}")
        failures = ["ground-sweep: " + "; ".join(problems)] if problems else []
        return failures, {"xi_min": {t: {str(n): v for n, v in d.items()} for t, d in table.items()}}

    def _wigner(self):
        return cli_main(self.WIGNER + ["--output", self.path("wigner.csv")])

    def _check_wigner(self, code):
        if code != 0:
            return [f"wigner exited with {code}"], {}
        preamble, rows = read_csv(self.path("wigner.csv"))
        problems = []
        w = np.array([float(row["w"]) for row in rows])
        if w.size != 81 * 81:
            problems.append(f"{w.size} points, expected {81 * 81}")
        max_abs = float(np.max(np.abs(w))) if w.size else math.nan
        if not max_abs <= 1.0 / math.pi + WIGNER_SLACK:
            problems.append(f"max|w| = {max_abs!r} exceeds 1/pi")
        record = {"max_abs_w": max_abs}
        xi_min = preamble_value(preamble, "xi_min")
        if xi_min is not None:
            record["xi_min"] = float(xi_min)
            expected = REFERENCE["ground_xi_min"]["q0"]["20"]
            if not abs(float(xi_min) - expected) <= REFERENCE["xi_tolerance"]:
                problems.append(f"xi_min {xi_min} != reference {expected!r}")
        return (["wigner: " + "; ".join(problems)] if problems else []), record

    def _closed(self):
        return {
            name: cli_main(argv + ["--output", self.path(f"{name}.csv")]) for name, argv in self.CLOSED.items()
        }

    def _check_closed(self, codes):
        failures = []
        record = {}
        for name, code in codes.items():
            if code != 0:
                failures.append(f"{name}-sweep exited with {code}")
                continue
            _, rows = read_csv(self.path(f"{name}.csv"))
            problems = []
            if len(rows) != self.CLOSED_ROWS[name]:
                problems.append(f"{len(rows)} rows, expected {self.CLOSED_ROWS[name]}")
            if name == "fidelity" and any(float(r["xi_lower"]) > float(r["xi_upper"]) for r in rows):
                problems.append("xi_lower > xi_upper")
            if name == "channel" and any(
                float(r["eta"]) == 1.0 and float(r["xi_out"]) != float(r["xi_in"]) for r in rows
            ):
                problems.append("eta = 1 does not leave xi unchanged")
            if name == "peaks":
                record["peaks_xi_smax6"] = {r["g"]: float(r["xi"]) for r in rows if r["s_max"] == "6"}
            if problems:
                failures.append(f"{name}-sweep: " + "; ".join(problems))
        return failures, record


class Channel(Workload):
    name = "channel"

    CUTOFF = 40
    STATES = 3
    ETAS = (0.95, 0.9, 0.8)
    NOISE = 0.1

    def setup(self) -> None:
        from gkpsq import fock, operators

        self.grid = operators.preset_grid("s0")
        self.op = operators.build_operator(self.grid, self.CUTOFF)
        rng = np.random.default_rng(self.seed)
        self.states = []
        for _ in range(self.STATES):
            raw = (rng.normal(size=12) + 1j * rng.normal(size=12)) * np.exp(-np.arange(12) / 3.0)
            state = fock.FockState.normalized(raw)
            self.states.append((state, state.density_matrix().padded(self.CUTOFF)))

    def _params(self, kind: str):
        from gkpsq.operators import ChannelParams

        if kind == "loss":
            return [ChannelParams(eta) for eta in self.ETAS]
        if kind == "noise":
            return [ChannelParams(1.0, self.NOISE)]
        return [ChannelParams(eta, self.NOISE) for eta in self.ETAS]

    def _recipe(self, states, params):
        from gkpsq import analytic, operators

        out = []
        for index, (state, rho) in states:
            for ch in params:
                scale = math.sqrt(ch.eta)
                terms = (
                    operators.sin2_expectation(state, self.grid.c11 * scale, 0.0),
                    operators.sin2_expectation(state, 0.0, self.grid.c22 * scale),
                )
                predicted = analytic.channel_output_xi(terms, ch, self.grid)
                measured = operators.expectation(self.op, operators.apply_channel(rho, ch, self.CUTOFF))
                out.append((index, ch, predicted, measured))
        return out

    def warmup(self) -> None:
        first = [(0, self.states[0])]
        for kind in ("loss", "noise", "composed"):
            self._recipe(first, self._params(kind)[:1])

    def steps(self) -> list[Step]:
        def step(metric, kind, kernel, repeat=1):
            params = self._params(kind)
            return Step(
                metric,
                f"channel_{kind}_s",
                len(params) * len(self.states),
                lambda: self._recipe(list(enumerate(self.states)), params),
                self._check,
                repeat,
                kernel,
            )

        return [
            step("stage1_s", "loss", "mixed", repeat=5),
            step("stage2_s", "noise", "dispatch"),
            step("stage3_s", "composed", "mixed"),
        ]

    def _check(self, results):
        failures = []
        record = {}
        for index, ch, predicted, measured in results:
            gap = abs(predicted - measured)
            label = f"state{index} eta={ch.eta!r} n_thermal={ch.n_thermal!r}"
            record[label] = {"xi": measured, "predicted": predicted, "gap": gap}
            if not gap < CHANNEL_GAP:
                failures.append(f"{label}: |predicted - measured| = {gap:.3e}")
        return failures, record


class Estimate(Workload):
    name = "estimate"

    ANGLES = (0.0, math.pi / 2.0)
    SAMPLES = 10**4  # per angle and file
    # The optimizer's evaluation count, and so its time, depends on the
    # samples (about 10 % from one sample set to the next), so its step
    # cycles through this many files drawn from the seed, and its median
    # is over files rather than over repeats of one file.
    FILES = 16
    DIM = 50

    def setup(self) -> None:
        from gkpsq import estimator, operators

        op = operators.build_operator(operators.preset_grid("q0"), self.DIM)
        gs = operators.ground_state(op)
        self.state = gs.state
        self.fock_xi = operators.expectation(op, gs.state)
        q0 = operators.preset_grid("q0")
        self.files, self.file_plain_xi = [], []
        for k, seed in enumerate(np.random.SeedSequence(self.seed).generate_state(self.FILES)):
            samples = estimator.synthesize_samples(gs.state, list(self.ANGLES), self.SAMPLES, seed=int(seed))
            self.files.append(self.path(f"samples{k}.csv"))
            estimator.save_samples(samples, self.files[-1])
            self.file_plain_xi.append(estimator.estimate_xi(samples, q0).xi)
        self.plain_xi = None
        self.optimized = 0

    def setup_record(self) -> dict:
        return {"fock_xi": self.fock_xi, "file_plain_xi": self.file_plain_xi}

    def _commands(self, samples_path: str) -> dict[str, list[str]]:
        base = ["estimate", "--input", samples_path]
        return {
            "plain": base + ["--topology", "q0"],
            "bootstrap": base + ["--topology", "q0", "--bootstrap", "500", "--seed", "1"],
            "optimize": base + ["--optimize", "--restarts", "8"],
        }

    def warmup(self) -> None:
        from gkpsq import estimator

        small = self.path("warm_samples.csv")
        estimator.save_samples(estimator.synthesize_samples(self.state, list(self.ANGLES), 2000, seed=self.seed), small)
        for argv in self._commands(small).values():
            self._cli_warm(argv + ["--output", self.path("warm.json")])

    def steps(self) -> list[Step]:
        def step(metric, kind, check, kernel):
            output = self.path(f"{kind}.json")
            return Step(
                metric,
                f"estimate_{kind}_s",
                1,
                lambda: (cli_main(self._commands(self.files[0])[kind] + ["--output", output]), output),
                lambda result: self._check(kind, result, check),
                kernel=kernel,
            )

        def optimize():
            k = self.optimized % self.FILES
            self.optimized += 1
            output = self.path("optimize.json")
            return cli_main(self._commands(self.files[k])["optimize"] + ["--output", output]), output, k

        return [
            step("stage1_s", "plain", self._check_plain, "mixed"),
            step("stage2_s", "bootstrap", self._check_bootstrap, "bulk"),
            Step("stage3_s", "estimate_optimize_s", 1, optimize, self._check_optimize, kernel="bulk"),
        ]

    def _check(self, kind, result, check):
        code, output = result
        if code != 0:
            return [f"estimate {kind} exited with {code}"], {}
        with open(output, encoding="utf-8") as fh:
            report = json.load(fh)
        record = {"xi": report["xi"], "std_error": report["std_error"]}
        if report.get("m_gkp") is not None:
            record["m_gkp"] = report["m_gkp"]
        problem = check(report)
        return ([f"estimate {kind}: {problem}"] if problem else []), record

    def _check_plain(self, report):
        xi, se = report["xi"], report["std_error"]
        self.plain_xi = xi
        if not abs(xi - self.fock_xi) < 3.0 * se:
            return f"xi {xi!r} more than 3 std_error ({se!r}) from the Fock value {self.fock_xi!r}"
        return None

    def _check_bootstrap(self, report):
        if report["xi"] != self.plain_xi:
            return f"bootstrap xi {report['xi']!r} != plain xi {self.plain_xi!r}"
        return None

    def _check_optimize(self, result):
        code, output, k = result
        failures, record = self._check("optimize", (code, output), lambda report: self._optimize_problem(report, k))
        return failures, {"file": k, **record}

    def _optimize_problem(self, report, k):
        plain = self.file_plain_xi[k]
        if not report["xi"] <= plain + OPTIMIZE_SLACK:
            return f"file {k}: optimized xi {report['xi']!r} above plain q0 xi {plain!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (Sweeps, Channel, Estimate)}
