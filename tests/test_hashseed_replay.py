"""Determinism is checked by replay: every anchor under two hash seeds.

An ``@pytest.mark.anchor`` test compares a run with bytes, digests or counts
captured on an earlier commit (``fixtures/replay_digests.json``,
``trace_digests.json``, the routes / Zipf capture, the pinned event counts
and the NetChain packet-path budget).  Here the whole set reruns in two
fresh interpreters at once, under ``PYTHONHASHSEED=1`` and ``=2``.  Set
iteration feeding route or event order, a slotted attribute that lost its
slot or an unguarded telemetry call then moves a pinned byte or count under
at least one seed, and a per-hop closure trips the call budget --
EXPERIMENTS.md, "Determinism lint sweep", plants each and names the anchor
that failed.  The two seeds are shown to order a set differently, so the
check cannot pass vacuously.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
HASHSEEDS = ("1", "2")


def run_under_hashseeds(argv, hashseeds=HASHSEEDS) -> dict:
    """``{seed: (exit code, output)}`` of ``python *argv(seed)``, every seed at once."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    procs = {
        seed: subprocess.Popen([sys.executable, *argv(seed)], cwd=REPO_ROOT,
                               env=dict(env, PYTHONHASHSEED=seed), text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        for seed in hashseeds
    }
    try:
        outputs = {seed: proc.communicate(timeout=300)[0] for seed, proc in procs.items()}
    finally:
        for proc in procs.values():  # reaps an overdue run; a no-op on a finished one
            proc.kill()
            proc.communicate()
    return {seed: (procs[seed].returncode, out) for seed, out in outputs.items()}


def test_the_two_hashseeds_order_a_set_differently():
    runs = run_under_hashseeds(lambda seed: ["-c", 'print(*{"S0", "S1", "S2", "S3"})'])
    assert all(code == 0 for code, _ in runs.values())
    assert runs["1"][1] != runs["2"][1]


def test_anchors_replay_under_two_hashseeds(tmp_path):
    runs = run_under_hashseeds(lambda seed: [
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "anchor",
        f"--basetemp={tmp_path / seed}"])
    failed = [f"PYTHONHASHSEED={seed}:\n{out}" for seed, (code, out) in runs.items() if code]
    assert not failed, "\n".join(failed)


def test_stable_name_seed_is_hashseed_independent():
    code = (
        "from repro.netsim.node import stable_name_seed\n"
        "print(stable_name_seed('spine-3'), stable_name_seed('client-7'))\n"
    )
    runs = run_under_hashseeds(lambda seed: ["-c", code], hashseeds=("0", "1", "424242"))
    assert all(code == 0 for code, _ in runs.values())
    assert len({out for _, out in runs.values()}) == 1
