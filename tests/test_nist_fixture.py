"""The four-test battery against its frozen fixture, exactly."""

import io
import json
from pathlib import Path

from permwhite.entropy import CounterSource
from permwhite.randtests import nist_lite

FIXTURE = Path(__file__).parent / "fixtures" / "nist_lite_uniform.json"


def test_nist_lite_matches_frozen_fixture():
    expected = json.loads(FIXTURE.read_text())
    data = CounterSource(expected["source_key"]).read_bytes(expected["byte_count"])
    report = nist_lite(io.BytesIO(data))
    assert report.bit_count == 8 * expected["byte_count"]
    for name in ("p_monobit", "p_block_frequency", "p_runs",
                 "p_cusum_forward", "p_cusum_backward"):
        assert getattr(report, name) == expected[name], name
