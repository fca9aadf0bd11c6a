"""The JSON record reader and field writer: ``words.json_record`` and ``words.json_fields``."""

import json

import pytest

from platkit.bands import Band, PlanBand, banded_from_obj
from platkit.motion import BandMark, motion_from_obj
from platkit.words import json_fields, json_record


class TestRecordHelpers:
    def test_fields_in_field_order(self):
        band = PlanBand(2, -1, 5, "insert")
        assert list(json_fields(band)) == ["slot", "sign", "position", "kind"]
        assert json_fields(band) == {"slot": 2, "sign": -1, "position": 5, "kind": "insert"}

    @pytest.mark.parametrize("record", [PlanBand(3, 1, 0, "remove"), BandMark(1, -1, "branch")])
    def test_round_trip(self, record):
        obj = json.loads(json.dumps(json_fields(record)))
        assert json_record(type(record), obj, kind=str, label=str) == record

    def test_fields_read_in_field_order(self):
        # a band's sign comes before its time, so it is reported first
        with pytest.raises(ValueError, match="^missing field 'sign'$"):
            json_record(Band, {"slot": 2}, time=object)
        with pytest.raises(ValueError, match="^missing field 'sign'$"):
            banded_from_obj({"strands": 4, "bands": [{"slot": 2}]})

    def test_missing_label_reads_as_empty(self):
        assert json_record(BandMark, {"slot": 1, "sign": -1}, label=str) == BandMark(1, -1, "")
        still = {"label": "s", "word": "", "bands": [{"slot": 1, "sign": 1}]}
        picture = motion_from_obj({"strands": 2, "stills": [still]})
        assert picture.stills[0].bands == (BandMark(1, 1, ""),)

    def test_json_true_is_no_int(self):
        obj = {"slot": True, "sign": 1, "position": 0, "kind": "insert"}
        with pytest.raises(ValueError, match="^'slot' must be of type int, got True$"):
            json_record(PlanBand, obj, kind=str)

    def test_record_must_be_an_object(self):
        with pytest.raises(ValueError, match="^expected a JSON object, got list$"):
            json_record(BandMark, [1, 1], label=str)
