"""Wire protocol: codec round-trips and verb schema validation."""

import json
import math

import pytest

from repro.serve.protocol import (
    ProtocolDecodeError,
    VERBS,
    decode_line,
    encode,
    error_response,
    ok_response,
    validate_request,
)


class TestCodec:
    def test_roundtrip(self):
        message = {"op": "enqueue", "flow": 3, "size": 1500, "id": 7}
        assert decode_line(encode(message).strip()) == message

    def test_float_tags_roundtrip_exactly(self):
        tag = 0.1 + 0.2  # not representable prettily; repr-exact anyway
        message = {"op": "reschedule", "handle": 1, "tag": tag}
        assert decode_line(encode(message))["tag"] == tag

    def test_encode_is_one_line(self):
        wire = encode({"op": "stats", "note": "a\nb"})
        assert wire.endswith(b"\n")
        assert wire.count(b"\n") == 1

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolDecodeError):
            decode_line(b"{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolDecodeError):
            decode_line(b"[1,2,3]")

    def test_wire_bytes_match_compact_sorted_dumps(self):
        message = {
            "ok": True,
            "id": 9,
            "served": [{"seq": 0, "flow": 2, "tag": 0.1 + 0.2, "size": 64}],
            "reason": "caf\u00e9 \u2014 ok",
            "z": None,
            "a": [1.5e300, -0.0, 10**20],
        }
        expected = (
            json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
        ).encode("utf-8")
        assert encode(message) == expected


class TestValidation:
    def test_all_verbs_have_schemas(self):
        assert set(VERBS) == {
            "hello",
            "open",
            "close",
            "enqueue",
            "cancel",
            "reschedule",
            "drain",
            "stats",
            "snapshot",
            "shutdown",
        }

    def test_valid_requests_pass(self):
        for message in [
            {"op": "hello"},
            {"op": "open", "tenant": "t", "flow": 1, "rate_bps": 1e6},
            {
                "op": "open",
                "tenant": "t",
                "flow": 1,
                "rate_bps": 1e6,
                "burst_bits": 100.0,
                "delay_target_s": 0.5,
            },
            {"op": "enqueue", "flow": 1, "size": 64, "id": "x"},
            {"op": "cancel", "handle": 0},
            {"op": "reschedule", "handle": 0, "tag": 12.5},
            {"op": "drain", "count": 10},
            {"op": "stats"},
        ]:
            assert validate_request(message) is None, message

    def test_missing_op(self):
        assert "op" in validate_request({"flow": 1})

    def test_unknown_op(self):
        assert "unknown op" in validate_request({"op": "frobnicate"})

    def test_missing_required_field(self):
        reason = validate_request({"op": "enqueue", "flow": 1})
        assert "size" in reason

    def test_wrong_type_rejected(self):
        reason = validate_request(
            {"op": "enqueue", "flow": 1, "size": "big"}
        )
        assert "size" in reason

    def test_bool_is_not_an_int(self):
        reason = validate_request(
            {"op": "enqueue", "flow": True, "size": 64}
        )
        assert "flow" in reason

    def test_unknown_field_rejected(self):
        reason = validate_request(
            {"op": "enqueue", "flow": 1, "size": 64, "sise": 64}
        )
        assert "sise" in reason

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "open", "tenant": "t", "flow": 1, "rate_bps": 2e6},
            {"op": "open", "tenant": "t", "flow": 1, "rate_bps": 2e6,
             "burst_bits": 0.0},
            {"op": "open", "tenant": "t", "flow": 1, "rate_bps": 2e6,
             "delay_target_s": 1.0},
            {"op": "reschedule", "handle": 0, "tag": 1.0},
        ],
    )
    def test_non_finite_numbers_rejected(self, request_, value):
        numeric = [
            name for name, field in request_.items()
            if isinstance(field, float)
        ]
        for name in numeric:
            reason = validate_request({**request_, name: value})
            assert reason is not None and repr(name) in reason
        # The decoder admits the non-standard literals; validation is the
        # gate that stops them.
        line = encode({**request_, numeric[-1]: value})
        assert validate_request(decode_line(line)) is not None

    def test_huge_ints_are_still_numbers(self):
        request = {"op": "reschedule", "handle": 0, "tag": 10**400}
        assert validate_request(request) is None


class TestResponses:
    def test_ok_echoes_id(self):
        response = ok_response({"op": "stats", "id": 42}, extra=1)
        assert response == {"ok": True, "id": 42, "extra": 1}

    def test_error_carries_reason(self):
        response = error_response({"op": "stats"}, "nope")
        assert response == {"ok": False, "reason": "nope"}

    def test_no_id_no_echo(self):
        assert "id" not in ok_response({"op": "stats"})
