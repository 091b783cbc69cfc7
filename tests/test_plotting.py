"""SVG output: structure, content, byte determinism."""

import xml.etree.ElementTree as ET

import pytest

from eegfusion.connectivity import FEATURE_ORDER
from eegfusion.plotting import svg_bars, write_svg
from eegfusion.relevance import ClassRelevance, RelevanceReport


def flat_report(seizure_percent=None):
    percent = {name: 100.0 / 7.0 for name in FEATURE_ORDER}
    raw = {name: 1.0 for name in FEATURE_ORDER}
    classes = {
        "non_seizure": ClassRelevance(percent, raw, (), 3),
        "seizure": ClassRelevance(seizure_percent or percent, raw, (), 3),
    }
    return RelevanceReport(classes=classes, feature_order=FEATURE_ORDER)


class TestSvgBars:
    def test_valid_xml_with_one_panel_per_class(self):
        svg = svg_bars(flat_report())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "feature relevance: seizure" in texts
        assert "feature relevance: non_seizure" in texts

    def test_every_feature_labeled_with_percentage(self):
        svg = svg_bars(flat_report())
        for name in FEATURE_ORDER:
            assert f">{name}<" in svg
        assert svg.count("14.29%") == 2 * len(FEATURE_ORDER)

    def test_bar_lengths_scale_with_percent(self):
        percent = {name: (50.0 if name == "DC" else 50.0 / 6.0) for name in FEATURE_ORDER}
        report = flat_report(percent)
        root = ET.fromstring(svg_bars(report))
        widths = [
            float(el.get("width"))
            for el in root.iter()
            if el.tag.endswith("rect") and el.get("fill") not in (None, "white")
        ]
        assert max(widths) == pytest.approx(440.0)  # peak bar fills the area
        assert min(widths) == pytest.approx(440.0 * (50.0 / 6.0) / 50.0, abs=0.01)

    def test_byte_deterministic(self, tmp_path):
        report = flat_report()
        write_svg(report, tmp_path / "a.svg")
        write_svg(report, tmp_path / "b.svg")
        a = (tmp_path / "a.svg").read_bytes()
        assert a == (tmp_path / "b.svg").read_bytes()
        assert a == svg_bars(report).encode()

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            svg_bars(RelevanceReport(classes={}, feature_order=FEATURE_ORDER))
