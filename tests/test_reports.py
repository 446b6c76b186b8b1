"""Report rendering and the CSV round trip."""

import io
import math

import pytest

from permwhite.errors import FormatError
from permwhite.randtests import EntReport, compare_reports, ent_analyze, nist_lite
from permwhite.reports import (
    figure_csv,
    parse_report_csv,
    render_comparison,
    render_ent_text,
    render_nist_text,
    report_to_csv,
)
from permwhite.entropy import CounterSource


def sample_report(**kwargs):
    base = dict(entropy_bits_per_byte=7.977154648, chi_square=4178095.198,
                arithmetic_mean=125.5156935, monte_carlo_pi=3.1683238249,
                serial_correlation=-0.0006678769, serial_correlation_defined=True,
                byte_count=67_108_864)
    base.update(kwargs)
    return EntReport(**base)


def test_text_report_decimals():
    text = render_ent_text(sample_report())
    assert "7.977155" in text       # entropy to 6 places
    assert "4178095.20" in text     # chi-square to 2
    assert "125.5157" in text       # mean to 4
    assert "3.168323825" in text    # pi to 9
    assert "-0.000668" in text      # serial correlation to 6
    assert "67108864" in text


def test_text_report_ideal_column():
    text = render_ent_text(sample_report())
    assert "8.000000" in text
    assert "256.00" in text
    assert "127.5000" in text
    assert "3.141592654" in text


def test_undefined_scc_rendered():
    undefined = sample_report(serial_correlation_defined=False)
    text = render_ent_text(undefined)
    assert "undefined" in text
    text = render_comparison(undefined, sample_report(),
                             compare_reports(undefined, sample_report()))
    (row,) = [line for line in text.splitlines() if line.startswith("Serial")]
    assert row.split()[3:] == ["undefined", "-0.000668", "0.000000", "undefined"]


def test_csv_round_trip_is_lossless():
    report = sample_report()
    parsed = parse_report_csv(report_to_csv(report))
    assert parsed == report


def test_csv_round_trip_from_real_analysis():
    data = CounterSource("csv-rt").read_bytes(20_000)
    ent = ent_analyze(io.BytesIO(data))
    nist = nist_lite(io.BytesIO(data))
    parsed = parse_report_csv(report_to_csv(ent, nist))
    assert parsed == ent


def test_csv_rejects_junk():
    with pytest.raises(FormatError):
        parse_report_csv("this,is\nnot,a\nreport,file\n")
    with pytest.raises(FormatError):
        parse_report_csv("parameter,value\nentropy_bits_per_byte,NOT_A_NUMBER\n")
    with pytest.raises(FormatError):
        parse_report_csv("parameter,value\nchi_square,1.0\n")  # fields missing


# csv.reader refuses a field over 128 KiB; the CLI never passes one.
@pytest.mark.parametrize("bad_row", [
    "chi_square," + "1" * (140 * 1024), "chi_square,nan", "monte_carlo_pi,-inf",
], ids=["huge-field", "nan", "-inf"])
def test_csv_rejects_huge_field_and_non_finite(bad_row):
    with pytest.raises(FormatError):
        parse_report_csv(report_to_csv(sample_report()) + bad_row + "\n")


def test_nist_text_marks_failures():
    data = b"\xff" * 1000
    text = render_nist_text(nist_lite(io.BytesIO(data)))
    assert "FAIL" in text
    uniform = CounterSource("nist-uni").read_bytes(125_000)
    text = render_nist_text(nist_lite(io.BytesIO(uniform)))
    assert "FAIL" not in text
    assert "pass" in text


def test_comparison_table_shows_verdicts():
    before = sample_report()
    after = sample_report(arithmetic_mean=126.9, chi_square=131845.09,
                          entropy_bits_per_byte=7.9985838)
    verdicts = compare_reports(before, after)
    table = render_comparison(before, after, verdicts)
    assert "improved" in table
    assert "Chi-Square Distribution" in table


def test_figure_csv_layout():
    text = figure_csv([("before", 4178095.198, 125.5157),
                       ("after", 131845.092, 125.5678)])
    lines = text.strip().splitlines()
    assert lines[0] == "label,chi_square,arithmetic_mean"
    assert len(lines) == 3
    assert lines[1].startswith("before,")


def test_figure_csv_quotes_awkward_labels():
    text = figure_csv([("a,b", 1.0, 2.0)])
    assert '"a,b"' in text


def test_ideal_pi_close_to_math_pi():
    from permwhite.randtests import IDEAL_VALUES

    assert IDEAL_VALUES["monte_carlo_pi"] == math.pi
