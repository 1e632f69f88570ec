"""The benchmark's output checks.

Each check takes outputs of the program and the benchmark's own record
of what they should be, and raises ``CheckFailed`` when they disagree.
None of them compares against stored output of an earlier run.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

import pearl.adversary as adversary

# test_acceptance::test_05 requires the mutant to be caught in >= 99 of 100
# image series.
MUTANT_DETECTION_RATE = Fraction(99, 100)


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_matches(got, expected, what):
    """A payload served by the program equals the benchmark's shadow."""
    if got != expected:
        raise CheckFailed(f"{what}: read returned other data than written")


def clock_identity(device):
    """The simulated clock is exactly the sum of its charged operations."""
    t = device.timings
    expect = (device.reads * t.read_us + device.programs * t.program_us
              + device.erases * t.erase_us)
    require(device.clock_us == expect,
            f"device clock {device.clock_us} us, operation counts give {expect} us")


def amplification_exact(ftl):
    """Physical/logical bits of user writes: exactly n/k public, n hidden."""
    code = ftl.config.code
    pub = ftl.amplification("public_user")
    hid = ftl.amplification("hidden_user")
    require(pub == Fraction(code.n, code.k),
            f"public amplification {pub}, expected {code.n}/{code.k}")
    require(hid == Fraction(code.n),
            f"hidden amplification {hid}, expected {code.n}")


def invariants_hold(ftl):
    problems = ftl.check_invariants()
    require(problems == [], f"FTL invariants: {problems[:3]}")


def transitions_plausible(report):
    bad = report.implausible
    if bad:
        raise CheckFailed(f"{len(bad)} implausible transitions, first: "
                          f"{bad[0].line()}")


def no_ui1_alarms(alarms):
    if alarms:
        raise CheckFailed(f"{len(alarms)} UI1 alarms, first: {alarms[0].line()}")


def images_compliant(before, after):
    """Two consecutive unmount images of the compliant FTL: no implausible
    transition between them and no UI1 alarm in the later one.  before
    is None at the start of a series."""
    if before is not None:
        transitions_plausible(adversary.diff_transitions(before, after))
    no_ui1_alarms(adversary.ui1_inference(after, after))


def mutant_flagged(series_list):
    """ui1_inference flags the mutant's image series at least at the
    acceptance-test rate."""
    caught = sum(any(adversary.ui1_inference(s, s) for s in series)
                 for series in series_list)
    need = ceil(MUTANT_DETECTION_RATE * len(series_list))
    require(caught >= need,
            f"mutant caught in {caught} of {len(series_list)} series, "
            f"need {need}")


def run_metrics_agree(metrics, records, submits, device_delta):
    """bench.replay's RunMetrics against the benchmark's own tallies."""
    require(metrics.requests == len(records),
            f"RunMetrics.requests {metrics.requests}, replayed {len(records)}")
    require(metrics.sub_requests == submits,
            f"RunMetrics.sub_requests {metrics.sub_requests}, submitted {submits}")
    moved = sum(r.size for r in records)
    require(metrics.bytes_moved == moved,
            f"RunMetrics.bytes_moved {metrics.bytes_moved}, sizes sum to {moved}")
    require(metrics.device_counts == device_delta,
            f"RunMetrics.device_counts {metrics.device_counts}, device moved "
            f"{device_delta}")


def responses_cover_service(responses_us, services_us):
    """No request is answered faster than the device served it."""
    require(len(responses_us) == len(services_us),
            f"{len(responses_us)} responses for {len(services_us)} requests")
    short = [i for i, (r, s) in enumerate(zip(responses_us, services_us))
             if r < s]
    require(not short, f"{len(short)} responses shorter than their service "
                       f"time, first request {short[:1]}")


def classify_matches_shadow(observations, tmap, shadow, first_ppn):
    """Every live public lpn maps to a page whose classified payload is
    the lpn's last written data (observations start at first_ppn)."""
    require(set(tmap) == set(shadow),
            f"translation map holds {len(tmap)} lpns, shadow {len(shadow)}; "
            f"differing: {sorted(set(tmap) ^ set(shadow))[:5]}")
    for lpn, data in shadow.items():
        obs = observations[tmap[lpn] - first_ppn]
        if obs.ppn != tmap[lpn] or obs.public_payload != data:
            raise CheckFailed(f"public lpn {lpn} at page {tmap[lpn]}: "
                              f"classified payload differs from the written data")


def frequency_counts_groups(report, second_pages, groups_per_page):
    """The distinguisher looked at every group of every second-stage page."""
    expect = second_pages * groups_per_page
    require(report.total_groups == expect,
            f"frequency_distinguisher counted {report.total_groups} groups, "
            f"{second_pages} second-stage pages hold {expect}")
