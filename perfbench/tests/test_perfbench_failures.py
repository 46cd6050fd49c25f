import json
from pathlib import Path

import pytest

from checks import Session
from workloads import DEFAULT_SEED, WORKLOADS, derive_seed
from worker import Runner, end_to_end, summarize


class FakeCli:
    """Stands in for nsab.cli: exit codes per subcommand, eigs output on disk."""

    def __init__(self, codes, eigs_rows=20):
        self.codes = codes
        self.eigs_rows = eigs_rows

    def main(self, argv):
        kind = argv[0]
        if self.codes.get(kind) == "raise":
            raise RuntimeError("boom")
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        if kind == "eigs":
            lines = ["n,lambda,k1,k2,block,multiplicity,residual"]
            lines += [f"{i},{float(i)},0,0,mean,2,1e-18"
                      for i in range(1, self.eigs_rows + 1)]
            (out / "eigs.csv").write_text("\n".join(lines) + "\n")
            (out / "garding.json").write_text(json.dumps({"gamma0_min": 0.0}))
        return self.codes.get(kind, 0)


def stationary_ops():
    return WORKLOADS["stationary-n16"].ops_for_pass(DEFAULT_SEED, 0)


def run_all(cli, tmp_path, ops):
    runner = Runner(cli, tmp_path, Session({}))
    return [runner.run(op) for op in ops]


def test_nonzero_exit_counts_as_failed_but_not_incorrect(tmp_path):
    eigs = [op for op in stationary_ops() if op.kind == "eigs"]
    solves = [op for op in stationary_ops() if op.kind == "solve"][:2]
    outcomes = run_all(FakeCli({"solve": 3}), tmp_path, eigs + solves)
    summary = summarize(outcomes)
    assert summary["attempted"] == 6 and summary["failed"] == 2
    assert summary["correct"] is True
    assert summary["failures"] == ["solve manufactured P=24: exit code 3 (x1)",
                                   "solve random_solenoidal P=24: exit code 3 (x1)"]
    assert list(tmp_path.iterdir()) == []   # outputs are deleted after checks


def test_wrong_output_with_exit_zero_is_incorrect(tmp_path):
    eigs = [op for op in stationary_ops() if op.kind == "eigs"]
    summary = summarize(run_all(FakeCli({}, eigs_rows=19), tmp_path, eigs))
    assert summary["failed"] == 4
    assert summary["correct"] is False


def test_exception_is_a_failed_operation(tmp_path, capsys):
    op = stationary_ops()[0]
    (outcome,) = run_all(FakeCli({"solve": "raise"}), tmp_path, [op])
    assert outcome["problems"] == ["exit code exception"]
    assert "RuntimeError: boom" in capsys.readouterr().err
    assert summarize([outcome])["correct"] is True


def test_end_to_end_counts_only_successes():
    def op(label, seconds, problems=()):
        # calibrated times feed the metrics; raw latencies do not
        return {"label": label, "latency": 100.0, "calibrated": seconds,
                "problems": list(problems)}

    passes = [[op("a", 1.0), op("b", 2.0), op("c", 3.0, ["exit code 3"])],
              [op("a", 1.5), op("b", 2.0), op("c", 3.0, ["exit code 3"])],
              [op("a", 2.0), op("b", 9.0), op("c", 3.0, ["exit code 3"])]]
    m = end_to_end(passes)
    assert m["wall_s"] == 1.5 + 2.0 + 3.0     # per-operation medians
    assert m["ops_per_s"] == pytest.approx(2 / 6.5)
    assert m["op_latency_s.p50"] == pytest.approx(2.0, abs=0.2)
    assert 2.0 < m["op_latency_s.p90"] < 9.0
    assert m["ops_ok_ratio"] == pytest.approx(6 / 9)


def test_at_the_default_seed_only_the_p48_solves_can_fail():
    # the stationary pass has 12 operations; 2 of them are the P=48 solves
    ops = stationary_ops()
    assert len(ops) == 12
    assert [op.label for op in ops if op.kind == "solve" and op.param("P") == 48] == [
        "solve manufactured P=48", "solve random_solenoidal P=48"]


def test_program_seeds_are_derived_per_key_and_repeat():
    assert derive_seed("probe-n8p16", 1, "u0.seed") != derive_seed("probe-n8p16", 1, "probe.seed")
    a = WORKLOADS["stationary-n16"].ops_for_pass(5, 0)
    b = WORKLOADS["stationary-n16"].ops_for_pass(5, 1)
    assert a == WORKLOADS["stationary-n16"].ops_for_pass(5, 0)
    changed = [x.label for x, y in zip(a, b) if x.config != y.config]
    assert changed == [f"solve random_solenoidal P={P}" for P in (24, 32, 40, 48)]
