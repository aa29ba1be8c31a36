"""Report rendering."""

from repro.bench.report import render_table


class TestRenderTable:
    def test_contains_title_headers_rows(self):
        text = render_table("My Title", ["col-a", "col-b"], [("x", 1.5), ("y", 200.0)])
        assert "My Title" in text
        assert "col-a" in text
        assert "1.50" in text  # mid-range floats get 2 decimals
        assert "200" in text  # large floats rounded to integers

    def test_small_floats_get_precision(self):
        text = render_table("t", ["v"], [(0.1234567,)])
        assert "0.1235" in text

    def test_alignment_uniform_width(self):
        text = render_table("t", ["a", "b"], [("xxxxxxxx", "y"), ("z", "wwwwwww")])
        lines = [line for line in text.splitlines()[2:]]
        assert len(set(len(line.rstrip()) for line in lines)) <= len(lines)
        header, rule, row1, row2 = lines
        assert len(row1.rstrip()) <= len(rule) + 2

    def test_non_numeric_cells(self):
        text = render_table("t", ["n"], [(None,), (True,)])
        assert "None" in text
        assert "True" in text

