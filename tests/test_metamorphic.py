"""Metamorphic relations: the model checked against itself.

Every differential test in this suite compares two paths through one
model, so a model error that both paths share is invisible to it. A
metamorphic relation changes an input whose effect on the output is known
and checks that effect instead (T. Y. Chen et al., "Metamorphic Testing: A
Review of Challenges and Opportunities", ACM Computing Surveys 51(1),
2018). Each test draws a source config from ``tests/test_mission_fuzz.py``'s
``mission_configs``, runs it and its follow-up, and compares their CSV
rows, report lines, run results (deviations, phase trace, counters,
energy) and the events each ``run_until`` and ``run_all`` call dispatched.
"""
import dataclasses
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from swarmsim.config import ConfigError, parse_config
from swarmsim.failure import FailureKind
from swarmsim.output import emit_csv, emit_report
from swarmsim.runner import _Mission
from test_mission_fuzz import HANDOVERS, _counting_events, mission_configs


def _run(data: dict) -> tuple | None:
    """The CSV lines, report lines, run result fields but the config, and
    per-call event counts of one run of ``data``; None if the parser
    rejects it."""
    try:
        cfg = parse_config(data)
    except ConfigError:
        return None
    mission = _Mission(cfg)
    events = _counting_events(mission.q)
    result = mission.run()
    with tempfile.TemporaryDirectory() as tmp:
        csv = emit_csv([result], Path(tmp) / "run.csv").read_text(encoding="utf-8")
        report = emit_report([result], Path(tmp) / "run.txt").read_text(encoding="utf-8")
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
              if f.name != "config"}
    return csv.splitlines(), report.splitlines(), fields, events


def _with(data: dict, section: str, **values) -> dict:
    return dict(data, **{section: dict(data.get(section, {}), **values)})


# each relation also runs the fuzz tests' six-SD mission with a soft
# handover, an SD lost while collecting and a hard handover
@settings(max_examples=20)
@given(data=mission_configs())
@example(data=HANDOVERS)
def test_with_one_access_class_edca_is_fifo(data):
    """Strict-priority service reorders packets only across classes. With
    video off and no infection, no video or case traffic exists, every
    WLAN packet is control traffic, and EDCA serves the one class in
    arrival order, as FIFO does."""
    source = _with(dict(data, infection_rate=0.0), "video", enabled=False)
    edca = _run(_with(source, "wlan", edca=True))
    if edca is not None:
        assert _run(_with(source, "wlan", edca=False)) == edca


@settings(max_examples=20)
@given(data=mission_configs())
@example(data=HANDOVERS)
def test_a_larger_buffer_changes_nothing_where_none_overflowed(data):
    """The WLAN buffer acts only when it overflows. In a run whose WLAN
    dropped nothing, every admission had room, and it has room in a
    larger buffer too, so raising the buffer to 2,000,000 bits changes
    nothing. Measuring from 0 s makes the CSV's drop count every drop."""
    source = dict(data, measure_from_s=0.0)
    got = _run(source)
    # a run that offered the WLAN nothing has no row for it
    if got is not None and not got[2]["metrics"].links.get("wlan", {}).get("dropped_pkts"):
        assert _run(_with(source, "wlan", buffer_bits=2_000_000)) == got


@settings(max_examples=20)
@given(data=mission_configs())
@example(data=HANDOVERS)
def test_without_infection_the_seed_names_the_run_and_nothing_else(data):
    """The seed drives only the infection draws, which file case reports
    and start calls. With ``infection_rate`` 0 no draw acts, so another
    seed moves only the run-id and seed columns and the report's header."""
    source = dict(data, infection_rate=0.0)
    got = _run(source)
    if got is None:
        return
    seed = data["seed"] + 1
    other = _run(dict(source, seed=seed))
    csv, report, fields, events = got
    other_csv, other_report, other_fields, other_events = other
    assert other_csv[0] == csv[0]
    assert [line.split(",", 2)[2] for line in other_csv[1:]] == [
        line.split(",", 2)[2] for line in csv[1:]]
    assert {line.split(",", 2)[1] for line in other_csv[1:]} == {str(seed)}
    assert other_report[0] == report[0].replace(f"(seed {data['seed']})", f"(seed {seed})")
    assert other_report[1:] == report[1:]
    assert dict(other_fields, seed=data["seed"]) == fields
    assert other_events == events


@settings(max_examples=20)
@given(data=mission_configs(), kind=st.sampled_from(FailureKind.ALL),
       drone=st.integers(1, 101), late_s=st.floats(0.001, 1000))
@example(data=HANDOVERS, kind=FailureKind.LD_SUDDEN, drone=1, late_s=0.001)
def test_a_failure_past_the_horizon_changes_nothing(data, kind, drone, late_s):
    """The horizon ends the run: an event scripted after it never runs, so
    it cannot change anything that happened before."""
    got = _run(data)
    if got is None:
        return
    failure = {"kind": kind, "at_s": data["duration_s"] + late_s,
               "drone_id": min(drone, data["n_sds"] + 1)}
    assert _run(dict(data, failures=[*data["failures"], failure])) == got
