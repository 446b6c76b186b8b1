"""Plain-text and CSV rendering for analysis results.

Text reports mirror the classic five-row statistics table (entropy to six
decimals, chi-square to two, mean to four, pi to nine, serial correlation
to six; Python's default round-half-to-even applies). CSV reports are
two-column ``parameter,value`` files with full double precision so they
can be parsed back losslessly for later comparison.
"""

from __future__ import annotations

import csv
import io
import math

from .errors import FormatError
from .randtests import IDEAL_VALUES, EntReport, NistLiteReport

# (display label, field, display decimals)
ENT_ROWS = (
    ("Entropy", "entropy_bits_per_byte", 6),
    ("Chi-Square Distribution", "chi_square", 2),
    ("Arithmetic Mean", "arithmetic_mean", 4),
    ("Monte Carlo value of Pi", "monte_carlo_pi", 9),
    ("Serial Correlation Coefficient", "serial_correlation", 6),
)

NIST_ROWS = (
    ("Monobit Frequency", "p_monobit"),
    ("Block Frequency (M=128)", "p_block_frequency"),
    ("Runs", "p_runs"),
    ("Cumulative Sums (forward)", "p_cusum_forward"),
    ("Cumulative Sums (backward)", "p_cusum_backward"),
)

_LABEL_W = 34


def _shown(report: EntReport, field: str, places: int) -> str:
    if field == "serial_correlation" and not report.serial_correlation_defined:
        return "undefined"
    return f"{getattr(report, field):.{places}f}"


def render_ent_text(report: EntReport, title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'Parameter':<{_LABEL_W}}{'Value':>16}{'Ideal':>16}")
    for label, field, places in ENT_ROWS:
        ideal = IDEAL_VALUES[field]
        lines.append(f"{label:<{_LABEL_W}}{_shown(report, field, places):>16}"
                     f"{ideal:>16.{places}f}")
    lines.append(f"{'Bytes analyzed':<{_LABEL_W}}{report.byte_count:>16}")
    return "\n".join(lines) + "\n"


def render_nist_text(report: NistLiteReport) -> str:
    lines = [f"{'Test':<{_LABEL_W}}{'P-value':>16}{'Result':>10}"]
    passed = report.pass_flags
    for label, field in NIST_ROWS:
        verdict = "pass" if passed[field] else "FAIL"
        lines.append(f"{label:<{_LABEL_W}}{getattr(report, field):>16.6f}{verdict:>10}")
    lines.append(f"{'Bits analyzed':<{_LABEL_W}}{report.bit_count:>16}")
    return "\n".join(lines) + "\n"


def report_to_csv(ent: EntReport, nist: NistLiteReport | None = None) -> str:
    """Machine-readable ``parameter,value`` CSV; parse back with
    ``parse_report_csv``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["parameter", "value"])
    for _, field, _ in ENT_ROWS:
        w.writerow([field, format(getattr(ent, field), ".17g")])
    w.writerow(["serial_correlation_defined",
                int(ent.serial_correlation_defined)])
    w.writerow(["byte_count", ent.byte_count])
    if nist is not None:
        for _, field in NIST_ROWS:
            w.writerow([field, format(getattr(nist, field), ".17g")])
        w.writerow(["bit_count", nist.bit_count])
        w.writerow(["ones_count", nist.ones_count])
    return buf.getvalue()


def parse_report_csv(text: str) -> EntReport:
    """Rebuild an ``EntReport`` from ``report_to_csv`` output (extra rows,
    such as the four-test p-values, are ignored). Values must be finite."""
    try:
        table = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise FormatError(f"malformed report CSV: {exc}") from None
    if not table or [c.strip() for c in table[0][:2]] != ["parameter", "value"]:
        raise FormatError("not a report CSV: missing parameter,value header")
    rows = {row[0].strip(): row[1].strip()
            for row in table[1:] if len(row) >= 2}
    try:
        values = {field: float(rows[field]) for _, field, _ in ENT_ROWS}
        report = EntReport(
            **values,
            serial_correlation_defined=bool(
                int(rows.get("serial_correlation_defined", 1))
            ),
            byte_count=int(rows.get("byte_count", 0)),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed report CSV: {exc}") from None
    for _, field, _ in ENT_ROWS:
        if not math.isfinite(getattr(report, field)):
            raise FormatError(f"malformed report CSV: {field} is not finite")
    return report


def render_comparison(before: EntReport, after: EntReport,
                      verdicts: dict) -> str:
    lines = [
        f"{'Parameter':<{_LABEL_W}}{'Before':>16}{'After':>16}"
        f"{'Ideal':>16}{'Verdict':>12}"
    ]
    for label, field, places in ENT_ROWS:
        b = _shown(before, field, places)
        a = _shown(after, field, places)
        ideal = IDEAL_VALUES[field]
        lines.append(
            f"{label:<{_LABEL_W}}{b:>16}{a:>16}"
            f"{ideal:>16.{places}f}{verdicts[field]:>12}"
        )
    return "\n".join(lines) + "\n"


def figure_csv(rows: list[tuple[str, float, float]]) -> str:
    """CSV of (label, chi_square, arithmetic_mean) for external plotting."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["label", "chi_square", "arithmetic_mean"])
    for label, chi, mean in rows:
        w.writerow([label, format(chi, ".17g"), format(mean, ".17g")])
    return buf.getvalue()
