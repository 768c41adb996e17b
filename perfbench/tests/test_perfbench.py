"""The benchmark's own tests: every workload at a tiny size, and the
correctness and determinism checks fed bad results."""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run as bench
from perfbench import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SIM = ("metro", "city", "catalog")


def _run(cwd, workload, trace=0, seed=3):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None), out


def _assert_declared(result, kind):
    declared = bench.load_benchmark()[kind]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["better"] in ("higher", "lower")
        assert isinstance(result["metrics"][m["name"]]["value"],
                          (int, float))


@pytest.mark.parametrize("workload", SIM)
@pytest.mark.parametrize("trace", (0, 1))
def test_sim_workload_tiny(tmp_path, workload, trace):
    code, result, out = _run(tmp_path, workload, trace)
    assert code == 0, out.stdout + out.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    _assert_declared(result, "per_layer" if trace else "end_to_end")
    if trace:
        assert (tmp_path / ".perfbench" / f"spans-{workload}.npz").exists()
    else:
        assert result["metrics"]["accuracy"]["value"] == 1.0


def test_real_workload_traced_tiny(tmp_path):
    code, result, out = _run(tmp_path, "real", trace=1)
    assert code == 0, out.stdout + out.stderr
    assert result["correct"] is True
    _assert_declared(result, "per_layer")
    assert result["metrics"]["backend.protocol.encode_us"]["value"] > 0


@pytest.mark.real_backend
def test_real_workload_tiny(tmp_path):
    code, result, out = _run(tmp_path, "real", trace=0)
    assert code == 0, out.stdout + out.stderr
    assert result["correct"] is True
    _assert_declared(result, "end_to_end")


def _session_members(sid):
    members = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[3]) == sid:
            members.append(stat.parent.name)
    return members


@pytest.mark.real_backend
def test_real_run_leaves_no_process_behind(tmp_path):
    # The spawned services and multiprocessing's resource tracker must
    # all be reaped before the run exits.
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "real", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []


def test_rerun_of_a_seed_reproduces_and_tampering_fails(tmp_path):
    code, first, _ = _run(tmp_path, "metro")
    assert code == 0 and first["correct"]
    code, again, _ = _run(tmp_path, "metro")
    assert code == 0 and again["correct"]
    # A stored fingerprint that disagrees must fail the run.
    path = tmp_path / ".perfbench" / "determinism.json"
    stored = json.loads(path.read_text())
    for fingerprint in stored.values():
        fingerprint["requests"] += 1
    path.write_text(json.dumps(stored))
    code, result, out = _run(tmp_path, "metro")
    assert code != 0 and result["correct"] is False
    assert "differ from an earlier run" in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metro",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _episode(**changes):
    episode = workloads.Episode(
        seed=7, setup_samples=[0.1], wall_s=1.0,
        latencies_s=np.array([0.5, 0.6, 0.7]),
        outcomes={"hit": 2, "miss": 1}, correct=3, layer={},
        issued=4, clients=2, events=100, records=3)
    for name, value in changes.items():
        setattr(episode, name, value)
    return episode


def test_sim_checks_pass_on_a_good_episode():
    assert workloads.check_sim_episode(_episode()) == []


@pytest.mark.parametrize("changes, needle", [
    ({"correct": 2}, "accuracy"),
    ({"outcomes": {"hit": 2, "error": 1}}, "error outcomes"),
    ({"outcomes": {"hit": 2, "miss": 2}}, "outcome counts sum"),
    ({"issued": 9}, "issued"),
    ({"issued": 2}, "issued"),
])
def test_sim_checks_fire(changes, needle):
    violations = workloads.check_sim_episode(_episode(**changes))
    assert violations and needle in " ".join(violations)


def test_determinism_check_fires():
    fingerprint = _episode().fingerprint()
    same = dict(fingerprint)
    assert workloads.check_determinism([(7, fingerprint), (7, same)]) == []
    other = dict(fingerprint, p99_ms=fingerprint["p99_ms"] + 1e-9)
    violations = workloads.check_determinism([(7, fingerprint), (7, other)])
    assert violations and "p99_ms" in violations[0]


def test_real_check_fires():
    from repro.backend.loadgen import WorkloadItem
    from repro.core.metrics import RequestRecord

    items = [WorkloadItem(client=c, edge="edge0", seq=0, capture_id=k,
                          object_class=1, viewpoint=0.0, input_bytes=10)
             for k, c in enumerate(("a", "b"))]

    def record(user, detail):
        return RequestRecord(task_kind="recognition", outcome="hit",
                             user=user, start_s=0.0, end_s=1.0,
                             correct=True, detail=detail)

    good = [record("a", {"label": 1}), record("b", {"label": 1})]
    assert workloads.check_real_episode(good, items) == []
    assert workloads.check_real_episode(good[:1], items)
    assert workloads.check_real_episode(good + good[:1], items)
    unlabeled = [record("a", {"label": 1}), record("b", {})]
    assert "no label" in workloads.check_real_episode(unlabeled, items)[0]


def test_tail_is_the_mean_of_the_ten_slowest():
    latencies = np.random.default_rng(0).permutation(1000).astype(float)
    assert workloads.tail_s(latencies) == 994.5
