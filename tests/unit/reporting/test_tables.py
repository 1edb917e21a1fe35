"""Result table rendering."""

import locale

import pytest

from repro.reporting import CHANNEL_TRAFFIC_COLUMNS, Table, channel_traffic_row


class TestTable:
    def test_basic_rendering(self):
        table = Table(["name", "value"], title="Demo")
        table.add_row("alpha", 1.5)
        table.add_row("beta", 2)
        text = table.render()
        assert "Demo" in text
        assert "alpha" in text
        assert "1.50" in text  # floats get two decimals

    def test_column_alignment(self):
        table = Table(["a", "long_header"])
        table.add_row("xxxxxxxxxx", "y")
        lines = table.render().splitlines()
        header, rule, row = lines[0], lines[1], lines[2]
        assert len(header) == len(row)
        assert set(rule) <= {"-", "+"}

    def test_cell_count_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_separator_between_sections(self):
        table = Table(["v"])
        table.add_row("app")
        table.add_separator()
        table.add_row("vta")
        text = table.render()
        body = text.splitlines()[2:]
        assert any(set(line) <= {"-", "+"} for line in body)

    def test_csv_output(self):
        table = Table(["a", "b"])
        table.add_row("x,y", 1)
        csv = table.to_csv()
        assert csv.splitlines()[0] == "a,b"
        assert "x;y" in csv  # commas in cells are escaped


def _artifact_table():
    """A table shaped like the committed artifacts: mixed cell types,
    a separator, a comma in a cell."""
    table = Table(["version", "decode [ms]", "speedup", "note"],
                  title="Determinism probe")
    table.add_row("1", 3664.125, 1.0, "baseline, seed")
    table.add_separator()
    table.add_row("6a", 812.0, 4.51125, "")
    table.add_row("7b", 800, 4.58, "int cell stays int")
    return table


class TestDeterminism:
    """The artifact pipeline's byte-identity rests on these properties."""

    def test_render_byte_identical_across_instances(self):
        assert _artifact_table().render() == _artifact_table().render()
        assert _artifact_table().to_csv() == _artifact_table().to_csv()

    def test_row_order_is_insertion_order(self):
        text = _artifact_table().render()
        assert text.index("\n1 ") < text.index("\n6a") < text.index("\n7b")

    def test_float_formatting_is_fixed_two_decimals(self):
        table = Table(["x"])
        table.add_row(1234567.891)
        rendered = table.render()
        assert "1234567.89" in rendered
        assert "," not in rendered  # no thousands grouping, ever

    def test_rendering_ignores_locale(self):
        """Floats must not pick up locale decimal commas or grouping.

        Only locales available in the container can be exercised; if no
        comma-decimal locale exists the f-string guarantee still holds
        and the instance-identity check above covers it.
        """
        baseline = _artifact_table().render()
        csv_baseline = _artifact_table().to_csv()
        original = locale.setlocale(locale.LC_ALL)
        candidates = ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "C.utf8", "C")
        exercised = 0
        try:
            for name in candidates:
                try:
                    locale.setlocale(locale.LC_ALL, name)
                except locale.Error:
                    continue
                exercised += 1
                assert _artifact_table().render() == baseline, name
                assert _artifact_table().to_csv() == csv_baseline, name
        finally:
            locale.setlocale(locale.LC_ALL, original)
        assert exercised > 0, "no locale could be exercised at all"

    def test_csv_round_trips_the_rendered_cells(self):
        """Every rendered cell survives the CSV form (modulo the comma
        escape), so the .txt and .csv artifacts carry the same data."""
        table = _artifact_table()
        lines = table.to_csv().splitlines()
        assert lines[0] == "version,decode [ms],speedup,note"
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0] == ["1", "3664.12", "1.00", "baseline; seed"]
        assert rows[2] == ["7b", "800", "4.58", "int cell stays int"]
        # Each CSV row matches the rendered text row cell-for-cell
        # (title, "=" rule, header and dash rules are skipped).
        rendered_rows = [
            [cell.strip() for cell in line.split(" | ")]
            for line in table.render().splitlines()[4:]
            if set(line) - {"-", "+"}  # skip separator rules
        ]
        for csv_row, text_row in zip(rows, rendered_rows):
            assert [c.replace(",", ";") for c in text_row] == csv_row


class TestChannelTrafficRow:
    _STATS = {"transactions": 10, "words": 40, "busy_fs": 1, "wait_fs": 2.5e12}

    def test_accepts_plain_dicts(self):
        row = channel_traffic_row("6a", self._STATS)
        assert row == ("6a", 10, 40, 2.5, "n/a")
        assert len(row) == len(CHANNEL_TRAFFIC_COLUMNS)

    def test_accepts_as_dict_objects(self):
        class Stats:
            def as_dict(self_inner):
                return dict(self._STATS)

        assert channel_traffic_row("6a", Stats()) == ("6a", 10, 40, 2.5, "n/a")
