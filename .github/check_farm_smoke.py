"""CI gate: the farm smoke fleet must retry its injected failure and
produce byte-identical suites to the plain serial sweeps.

``repro farm run .github/farm_smoke.json`` ran two suites on a 2-slot
local farm: a 4-shard Fig. 7 suite, one job per shard, with one
injected transient failure (fig7/2 fails its first attempt), and a
6-point Fig. 8 suite, which is one job.  This script checks the report
it left:

* the fleet settled completely (5 done, 0 failed) *through* the retry
  path (``obs.farm.retried`` >= 1 in the manifest counters), and the
  Fig. 8 suite ran as the single job ``fig8/0``;
* each merged suite value is byte-identical to ``run_sweep`` of the
  same spec run serially in this process — the farm is a scheduler,
  never a different experiment.
"""

import json
import os
import sys

REPORT = "farm-report"
THREADS = (2, 3, 4, 5, 6, 8)


def serial_sweeps():
    """Suite id -> (serial run_sweep, jobs the suite must have run)."""
    from repro.core.config import parse_config
    from repro.parallel import fig8_spec, latency_matrix_spec, run_sweep
    # obs_spec={} mirrors the spec-file suite default (metrics ride
    # along for the farm report), so the whole value compares equal.
    fig7 = run_sweep(latency_matrix_spec(parse_config("4x1x4"),
                                         obs_spec={}), jobs=1)
    fig8 = run_sweep(fig8_spec(parse_config("2x2x2"),
                               thread_counts=THREADS, obs_spec={}), jobs=1)
    return {"fig7": (fig7, [f"fig7/{index}" for index in range(4)]),
            "fig8": (fig8, ["fig8/0"])}


def main():
    with open(os.path.join(REPORT, "farm.json")) as handle:
        manifest = json.load(handle)
    counters = manifest["counters"]
    if not manifest["final"]:
        sys.exit("farm.json is not final — the fleet did not settle")
    sweeps = serial_sweeps()
    expected_jobs = [job for _, jobs in sweeps.values() for job in jobs]
    job_ids = sorted(job["job_id"] for job in manifest["jobs"])
    if job_ids != sorted(expected_jobs):
        sys.exit(f"expected jobs {sorted(expected_jobs)}, got {job_ids}")
    if counters["obs.farm.done"] != len(expected_jobs):
        sys.exit(f"expected {len(expected_jobs)} done jobs, got "
                 f"{counters['obs.farm.done']}")
    if counters["obs.farm.failed"] != 0:
        sys.exit(f"{counters['obs.farm.failed']} job(s) failed")
    if counters["obs.farm.retried"] < 1:
        sys.exit("the injected transient failure was not retried "
                 f"(obs.farm.retried={counters['obs.farm.retried']})")

    for suite_id, (serial, _jobs) in sweeps.items():
        with open(os.path.join(REPORT, "suites",
                               f"{suite_id}.json")) as handle:
            suite = json.load(handle)
        farm_value = json.dumps(suite["value"], sort_keys=True)
        serial_value = json.dumps(serial.value, sort_keys=True)
        if farm_value != serial_value:
            sys.exit(f"farm suite {suite_id} differs from the serial "
                     f"run_sweep")
        if suite["config_hash"] != serial.config_hash:
            sys.exit(f"farm and serial {suite_id} sweeps disagree on "
                     f"config_hash")

    print(f"farm smoke OK: {counters['obs.farm.done']} done via "
          f"{counters['obs.farm.launched']} launches "
          f"({counters['obs.farm.retried']} retried), fig7 and fig8 "
          f"byte-identical to the serial sweeps")


if __name__ == "__main__":
    main()
