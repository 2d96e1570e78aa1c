"""Typed trace events: vocabulary, serialization, damage handling."""

import pytest

from repro.observe.events import EVENT_KINDS, TraceEvent


class TestVocabulary:
    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            TraceEvent(kind="made_up", vtime=0.0, seq=0)

    def test_every_known_kind_constructs(self):
        for kind in EVENT_KINDS:
            event = TraceEvent(kind=kind, vtime=1.0, seq=3)
            assert event.kind == kind


class TestSerialization:
    def test_json_roundtrip_preserves_everything(self):
        event = TraceEvent(kind="new_path", vtime=1.25, seq=17,
                           payload={"pm_paths": 42, "pm_novel": True})
        back = TraceEvent.from_json(event.to_json())
        assert back == event
        assert back.payload == {"pm_paths": 42, "pm_novel": True}

    def test_json_lines_are_key_sorted_and_compact(self):
        line = TraceEvent(kind="exec", vtime=0.5, seq=1,
                          payload={"cost": 0.01}).to_json()
        assert "\n" not in line and " " not in line
        keys = [part.split(":")[0].strip('"{')
                for part in line.split(",")]
        assert keys == sorted(keys)

    def test_member_defaults_to_solo_on_parse(self):
        """Every writer is the solo campaign: a line with or without the
        old ``member`` header parses to the same event, and the header
        does not leak into the payload."""
        event = TraceEvent.from_json('{"kind":"crash","vtime":1.0,"seq":0}')
        old = TraceEvent.from_json(
            '{"kind":"crash","member":-1,"vtime":1.0,"seq":0}')
        assert old == event
        assert old.payload == {}
        assert "member" not in event.to_json()

    @pytest.mark.parametrize("line", [
        "",                                # empty
        "{torn off mid-wri",               # the SIGKILL tail
        '"just a string"',                 # valid JSON, wrong shape
        '{"vtime":1.0,"seq":0}',           # missing kind
        '{"kind":"exec","seq":0}',         # missing vtime
        '{"kind":"exec","vtime":"x","seq":0}',  # unparsable vtime
    ])
    def test_damaged_lines_raise_value_error(self, line):
        with pytest.raises(ValueError):
            TraceEvent.from_json(line)


class TestDedupKey:
    def test_replayed_event_shares_identity(self):
        first = TraceEvent(kind="exec", vtime=1.0, seq=5,
                           payload={"cost": 0.01})
        replay = TraceEvent(kind="exec", vtime=1.0, seq=5,
                            payload={"cost": 0.01})
        assert first.dedup_key == replay.dedup_key

    def test_key_separates_sequences(self):
        a = TraceEvent(kind="exec", vtime=1.0, seq=5)
        assert a.dedup_key != TraceEvent(kind="exec", vtime=1.0,
                                         seq=6).dedup_key
