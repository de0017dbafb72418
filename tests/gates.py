"""The CI gates that need no pytest, in one standard-library script.

    python tests/gates.py

Run it from anywhere, with any interpreter from Python 3.10 on; it takes no
options. Each gate runs in a fresh child of the same interpreter, with
``src`` on its path, so no gate sees what another one loaded:

* no runtime dependency: under ``python -S`` (no site-packages), a channel
  run and three sentinel runs load only the standard library and resilsim;
* memory: the ``tracemalloc`` peak of the 10^5-step ``channel-walk`` run
  is at most 12 MB, and those of the 40 000-step ``channel-bursty`` run
  and of the ``sentinel-pool`` run with its 100 001-row curve at most 4 MB;
* golden digests: ``tests/golden_cases.py`` under ``PYTHONHASHSEED`` 0 and
  12345, so byte-identical outputs do not depend on string hashing;
* oracles: fixed cases of both studies equal the reference models of
  ``tests/oracles.py``, through the same comparisons the tests make: the
  predictors' yield columns, the channel runs (the interleaving edge
  cases included) with their CSV rows and mean step fit, the sentinel runs
  with their CSV lines, header and summary, the curve, the scenario
  premise, and the ``compare`` output of descriptor pairs;
* store temp name: the knowledge store's temp name has one length for
  every process id;
* callers: ``tests/callers.py``, so every function in ``src/resilsim`` is
  entered by a command case or listed in README's "Calculus surface
  without a runtime caller", and every listed one is neither;
* benchmark outputs: ``perfbench/run.py --seconds 0`` on each workload
  that ``BENCHMARK.json`` lists, plain and traced, reports ``"correct":
  true``, so every output matches ``perfbench/golden.json`` at benchmark
  size (10^5-step CSVs, the 100 001-row curve) and every layer the
  benchmark names is found.

It prints one line per gate and exits 1 if any gate fails.
"""

import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src")


def no_runtime_dependency() -> None:
    """A short channel run (knowledge store included) and three sentinel runs
    (a curve, a batch, and both) load nothing but the standard library and
    resilsim. Run it under ``python -S``, so site-packages are not found."""
    import json
    import tempfile

    from resilsim.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        def config(name, payload):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            return path
        predictor = {"kind": "window_max", "window": 8}
        channel = config("channel.json", {
            "channel": {"kind": "bursty", "p_enter": 0.05, "p_exit": 0.3,
                        "y_calm": 1, "y_burst": 5},
            "steps": 500,
            "seed": 11,
            "knowledge_store": os.path.join(tmp, "store.json"),
            "protocols": [
                {"kind": "elastic", "yield_point": 6},
                {"kind": "entelechial", "predictor": predictor, "epsilon": 1.5},
                {"kind": "antifragile", "predictor": predictor, "epsilon": 1.5,
                 "identity_profile": {"kind": "teleconferencing",
                                      "jitter_bound": 0.5}},
            ],
        })
        sentinel = config("sentinel.json", {"pool_size": 100, "steps": 200})
        out = os.path.join(tmp, "out")
        for args in (["channel", "-c", channel],
                     ["sentinel", "-c", sentinel, "--curve", "10"],
                     ["sentinel", "-c", sentinel, "--runs", "3"],
                     ["sentinel", "-c", sentinel, "--curve", "10", "--runs", "3"]):
            if main([*args, "-o", out]) != 0:
                sys.exit(f"{' '.join(args)} failed")
    loaded = {name.partition(".")[0] for name in sys.modules}
    foreign = sorted(loaded - set(sys.stdlib_module_names)
                     - {"resilsim", "__main__", __name__})
    if foreign:
        sys.exit(f"modules outside the standard library: {', '.join(foreign)}")
    print(f"{len(loaded)} top-level modules, all standard library or resilsim")


def tracemalloc_peak() -> None:
    """The benchmark's channel configs through the command line peak under
    ``tracemalloc`` at most at their bounds: channel-walk (10^5 random-walk
    steps, elastic and entelechial, seed 5) at 12 MB, then channel-bursty
    (the README's three protocols over 40 000 bursty steps, seed 17), whose
    antifragile run takes the interleaved path, at 4 MB. Per step the trace
    keeps 8 bytes (its demand) and a run 9 (yields and delivery; the
    predictor pass keeps no prediction), and the CSVs are streamed in
    blocks of 4 096 lines (about 0.5 MB). ``cli.main`` imports the channel
    study once it knows the command, so the first peak includes loading
    it. The peaks are those of the predictor pass: channel-walk's 5.0 MB on
    Python 3.10, 4.7 MB on 3.11, 5.5 MB on 3.12 and 5.4 MB on 3.13,
    channel-bursty's 1.9 MB on each. Per-step int or float objects, or a
    list of rows, would pass 12 MB at 10^5 steps; a list of the lines of
    each CSV takes channel-bursty to 5.4 MB."""
    import json
    import tempfile
    import tracemalloc

    from resilsim.cli import main

    window_max = {"kind": "window_max", "window": 8}
    configs = {
        ("channel-walk", 12): {
            "channel": {"kind": "random_walk", "y0": 3, "step_prob": 0.2,
                        "min": 1, "max": 6},
            "steps": 100_000,
            "seed": 5,
            "protocols": [
                {"kind": "elastic", "yield_point": 7},
                {"kind": "entelechial", "predictor": {"kind": "ewma_slope"},
                 "epsilon": 1.5},
            ],
        },
        ("channel-bursty", 4): {
            "channel": {"kind": "bursty", "p_enter": 0.05, "p_exit": 0.3,
                        "y_calm": 1, "y_burst": 5, "burst_correlated": True},
            "steps": 40_000,
            "seed": 17,
            "protocols": [
                {"kind": "elastic", "yield_point": 6},
                {"kind": "entelechial", "predictor": window_max, "epsilon": 1.5},
                {"kind": "antifragile", "predictor": window_max, "epsilon": 1.5,
                 "epochs_per_review": 50,
                 "identity_profile": {"kind": "teleconferencing",
                                      "jitter_bound": 0.5}},
            ],
        },
    }
    over = []
    with tempfile.TemporaryDirectory() as tmp:
        for (name, bound_mb), payload in configs.items():
            config = os.path.join(tmp, f"{name}.json")
            with open(config, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            tracemalloc.start()
            status = main(["channel", "-c", config, "-o", os.path.join(tmp, name)])
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            if status != 0:
                sys.exit(f"{name} run failed with exit code {status}")
            print(f"{name} tracemalloc peak: {peak_mb:.2f} MB")
            if peak_mb > bound_mb:
                over.append(f"{name} tracemalloc peak {peak_mb:.2f} MB exceeds {bound_mb} MB")
    if over:
        sys.exit("; ".join(over))


def curve_tracemalloc_peak() -> None:
    """The benchmark's sentinel-pool command (a pool of 10 000 over 2 000
    steps, seed 3, ``--curve 100000``) peaks at most 4 MB under
    ``tracemalloc``. The run keeps two columns of 2 000 entries, and
    ``curve.csv`` is streamed from columns made as they are read, in blocks
    of 4 096 lines, so the peak is mostly loading the sentinel study:
    2.26 MB on Python 3.10, 1.99 MB on 3.11, 2.65 MB on 3.12 and 2.60 MB on
    3.13. A list of the 100 001 supplies would add 3.2 MB, a list of the
    lines 9 MB."""
    import json
    import tempfile
    import tracemalloc

    from resilsim.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "pool.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({"pool_size": 10_000, "steps": 2_000, "seed": 3}, handle)
        tracemalloc.start()
        status = main(["sentinel", "-c", config, "-o", os.path.join(tmp, "out"),
                       "--curve", "100000"])
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    if status != 0:
        sys.exit(f"sentinel run failed with exit code {status}")
    print(f"tracemalloc peak: {peak_mb:.2f} MB")
    if peak_mb > 4:
        sys.exit(f"tracemalloc peak {peak_mb:.2f} MB exceeds 4 MB")


def oracles_agree() -> None:
    """Both studies equal their reference models in ``tests/oracles.py`` on
    fixed cases, compared only through its ``assert_*`` helpers:

    * the random-walk generator: the benchmark's walk at seeds 0 to 19 and
      the edge cases of ``WALK_CASES`` (``step_prob`` 0 and 1, ``y0`` at
      either bound, ``min == max``, 1 and 2 steps) against ``oracle_walk``,
      demand and random draws;
    * predictors: an entelechial run (epsilon 1.5) against the per-step
      predictor and yield rule, the kernel's yields included, on
      the README's bursty channel and the benchmark's random walk, 2 000
      steps each, and ``[1, 5, 2, 2, 6, 1]``; ``WindowMax`` at windows 1, 2,
      8, n - 1, n and n + 1 of an n-step trace, ``EwmaPlusSlope`` at its
      defaults and at alpha 0.5 with horizon 3;
    * channel runs, with the mean step fit under the three fit variants:
      the six interleaving edge cases, and on the two 2 000-step traces the
      elastic run at yields 4 and 6, and the entelechial and antifragile
      runs (``FileTransfer`` and ``Teleconferencing(0.5)``) with
      ``WindowMax(8)`` and ``EwmaPlusSlope()``; and the README antifragile
      run over 5 000 bursty steps, which mutates and violates identity;
    * sentinel runs, with ``until_decided`` off and on: the CSV lines, the
      columns, the decisions, the header and the summary, for the README
      scenario, no canaries and ``ODD_POOL_FIT_POLICY`` at seeds 0 to 19
      over 500 steps, and ``sentinel-pool``'s pool of 10 000 over 2 000
      steps at its seed 3;
    * the supply/fit curve and ``curve.csv`` for pools 1 to 50, and the
      three example figure sets of the scenario premise;
    * ``compare`` on every ordered pair of ``COMPARE_DESCRIPTORS`` under the
      three fit variants, byte for byte.

    The first 20 failed cases are printed, each with the line of
    ``tests/oracles.py`` that failed."""
    import traceback

    from oracles import (COMPARE_DESCRIPTORS, EDGE_CASES, FIT_VARIANTS, ODD_POOL_FIT_POLICY,
                         PREMISE_EXAMPLES, WALK_CASES, assert_antifragile_matches_oracle,
                         assert_compare_matches_oracle, assert_curve_matches_oracle,
                         assert_elastic_matches_oracle, assert_entelechial_matches_oracle,
                         assert_premise_matches_oracle, assert_run_matches_oracle,
                         assert_walk_matches_oracle)
    from resilsim.channel import (AntifragileEvolving, BurstyChannel, EwmaPlusSlope,
                                  FileTransfer, RandomWalkChannel, Teleconferencing,
                                  WindowMax, generate_trace)
    from resilsim.sentinel import Scenario

    def bursty(steps):
        return generate_trace(BurstyChannel(p_enter=0.05, p_exit=0.3, y_calm=1,
                                            y_burst=5, seed=17), steps)

    traces = {"bursty": bursty(2_000),
              "walk": generate_trace(RandomWalkChannel(y0=3, step_prob=0.2, y_min=1,
                                                       y_max=6, seed=5), 2_000)}
    checked, wrong = {}, []

    def check(kind, name, compare, *args, **kwargs):
        checked[kind] = checked.get(kind, 0) + 1
        try:
            compare(*args, **kwargs)
        except AssertionError as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            wrong.append(f"{name} (oracles.py line {frame.lineno}: {frame.line})")

    for name, (model, steps) in WALK_CASES.items():
        check("random walks", f"walk {name}", assert_walk_matches_oracle, model, steps)
    for name, trace in (*traces.items(), ("short", (1, 5, 2, 2, 6, 1))):
        n = len(trace) if isinstance(trace, tuple) else len(trace.y)
        for predictor in (*map(WindowMax, sorted({1, 2, 8, n - 1, n, n + 1})),
                          EwmaPlusSlope(), EwmaPlusSlope(alpha=0.5, horizon=3)):
            check("predictor columns", f"{predictor} on the {name} trace",
                  assert_entelechial_matches_oracle, trace, predictor, 1.5)

    for name, (case, _) in EDGE_CASES.items():
        config = AntifragileEvolving(
            predictor=WindowMax(1), epsilon=1.0, epochs_per_review=case["review_every"],
            burstiness_threshold=0.0, interleave_depth=case["depth"])
        check("channel runs", f"antifragile edge case {name!r}",
              assert_antifragile_matches_oracle, case["trace"], config, case["lessons"],
              FIT_VARIANTS)
    for name, trace in traces.items():
        for yield_point in (4, 6):
            check("channel runs", f"elastic Y={yield_point} on the {name} trace",
                  assert_elastic_matches_oracle, trace, yield_point, FIT_VARIANTS)
        for predictor in (WindowMax(8), EwmaPlusSlope()):
            check("channel runs", f"entelechial {predictor} on the {name} trace",
                  assert_entelechial_matches_oracle, trace, predictor, 1.5, FIT_VARIANTS)
            for profile in (FileTransfer(), Teleconferencing(jitter_bound=0.5)):
                config = AntifragileEvolving(predictor=predictor, epsilon=1.5,
                                             identity_profile=profile)
                check("channel runs", f"antifragile {predictor} {profile} on the {name} trace",
                      assert_antifragile_matches_oracle, trace, config,
                      variants=FIT_VARIANTS)
    readme = AntifragileEvolving(predictor=WindowMax(8), epsilon=1.5, epochs_per_review=50,
                                 identity_profile=Teleconferencing(jitter_bound=0.5))
    check("channel runs", "antifragile README run over 5 000 bursty steps",
          assert_antifragile_matches_oracle, bursty(5_000), readme, variants=FIT_VARIANTS)

    scenarios = {"README": Scenario(), "no-canary": Scenario(pool_size=0),
                 "odd-pool": ODD_POOL_FIT_POLICY}
    cases = [(name, scenario, 500, seed) for name, scenario in scenarios.items()
             for seed in range(20)]
    cases.append(("pool-10000", Scenario(pool_size=10_000), 2_000, 3))
    for name, scenario, steps, seed in cases:
        for until_decided in (False, True):
            check("sentinel runs", f"{name} seed {seed} until_decided={until_decided}",
                  assert_run_matches_oracle, scenario, steps, seed, until_decided)

    for pool in range(1, 51):
        check("curves", f"curve of a pool of {pool}", assert_curve_matches_oracle, pool)
    for name, figure_sets in PREMISE_EXAMPLES.items():
        check("premise cases", f"premise example {name!r}",
              assert_premise_matches_oracle, **figure_sets)
    for variant in FIT_VARIANTS:
        for a in COMPARE_DESCRIPTORS:
            for b in COMPARE_DESCRIPTORS:
                check("compare outputs", f"compare {a} {b} under {variant.label()}",
                      assert_compare_matches_oracle, a, b, variant)

    if wrong:
        print(*wrong[:20], sep="\n")
        sys.exit(f"{len(wrong)} cases differ from tests/oracles.py")
    print(", ".join(f"{count} {kind}" for kind, count in checked.items())
          + " equal tests/oracles.py")


def store_temp_name() -> None:
    """The knowledge store's temp name has one length for every process id
    that Linux gives (1 to 4 194 303), so whether it can name a file, and
    with it a learning run's exit code, does not depend on the id."""
    from unittest import mock

    from resilsim.channel import KnowledgeStore

    lengths = {}
    for pid in (1, 4242, 4_194_303):
        with mock.patch("os.getpid", return_value=pid):
            lengths[pid] = len(KnowledgeStore.temp_path("store.json"))
    if len(set(lengths.values())) != 1:
        sys.exit(f"temp name length by process id: {lengths}")
    print(f"temp name of store.json: {lengths[1]} characters for every process id")


def benchmark_correct(workload: str, trace: str) -> None:
    """``perfbench/run.py --workload WORKLOAD --seconds 0 --trace TRACE``
    exits 0 and the last line of its standard output reports ``"correct":
    true``. Otherwise the failures it lists are printed."""
    import json
    import subprocess

    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seconds", "0", "--trace", trace]
    done = subprocess.run(argv, cwd=ROOT, text=True, capture_output=True)
    *report, last = done.stdout.splitlines() or [""]
    try:
        result = json.loads(last)
        correct = result["correct"] is True
    except (ValueError, KeyError, TypeError):
        correct = False
    if done.returncode == 0 and correct:
        print(f"correct: true, {result['attempted']} invocations")
        return
    try:
        shown = json.loads("\n".join(report))["failures"]
    except (ValueError, KeyError, TypeError):
        shown = report[-20:]
    print(*shown, *done.stderr.splitlines()[-20:], sep="\n")
    sys.exit(f"exit {done.returncode}, not correct: an output differs from "
             "perfbench/golden.json, or a traced layer was not found")


def main() -> int:
    import json
    import subprocess

    def child(*argv, **env):
        """Run ``argv`` with this interpreter and ``src`` and ``tests`` on
        the path; the exit status and the output, stripped."""
        path = [SRC, TESTS, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), **env}
        done = subprocess.run([sys.executable, *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        return done.returncode, done.stdout.strip()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [workload["name"] for workload in json.load(handle)["workloads"]]
    golden = os.path.join(TESTS, "golden_cases.py")
    gates = [("no runtime dependency", child(
                 "-S", "-c", "import gates; gates.no_runtime_dependency()")),
             ("channel-walk tracemalloc peak at most 12 MB, channel-bursty 4 MB", child(
                 "-c", "import gates; gates.tracemalloc_peak()")),
             ("sentinel-pool tracemalloc peak at most 4 MB", child(
                 "-c", "import gates; gates.curve_tracemalloc_peak()"))]
    gates += [(f"golden digests under PYTHONHASHSEED={seed}",
               child(golden, PYTHONHASHSEED=seed)) for seed in ("0", "12345")]
    gates.append(("both studies match the oracles of tests/oracles.py", child(
                     "-c", "import gates; gates.oracles_agree()")))
    gates.append(("store temp name has one length for every process id", child(
                     "-c", "import gates; gates.store_temp_name()")))
    gates.append(("every function is entered by a command or listed in README", child(
                     os.path.join(TESTS, "callers.py"))))
    gates += [(f"benchmark {workload} --trace {trace} correct", child(
                  "-c", f"import gates; gates.benchmark_correct({workload!r}, {trace!r})"))
              for workload in workloads for trace in ("0", "1")]
    print(f"Python {sys.version.split()[0]}")
    failed = 0
    for name, (status, output) in gates:
        failed += status != 0
        print(f"{name}: {'ok' if status == 0 else f'FAILED (exit {status})'}")
        for line in output.splitlines():
            print(f"    {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
