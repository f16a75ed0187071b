"""Tests for the scenario YAML loader."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios.yamlio import load_yaml_file, parse_yaml

SAMPLE = """
name: sample
duration_s: 12.5
nested:
  flag: true
  nothing: null
  quoted: "a: b"
list:
  - 1
  - two
  - {k: v, n: 3}
compact:
  - {name: read, weight: 60, objects: [a, b], kind: read}
  - name: write
    weight: 40
"""


def parse(text):
    return parse_yaml(text, "f.yaml")


def test_parse_yaml_basic_types():
    data = parse_yaml(SAMPLE, "<test>")
    assert data["name"] == "sample"
    assert data["duration_s"] == 12.5
    assert data["nested"] == {"flag": True, "nothing": None,
                             "quoted": "a: b"}
    assert data["list"] == [1, "two", {"k": "v", "n": 3}]
    assert data["compact"][0]["objects"] == ["a", "b"]
    assert data["compact"][1] == {"name": "write", "weight": 40}


def test_mini_parser_multiline_flow():
    text = "tasks:\n  - {name: scan, weight: 90,\n     run_count: 64}\n"
    assert parse(text) == {
        "tasks": [{"name": "scan", "weight": 90, "run_count": 64}]
    }


def test_mini_parser_comments_and_blanks():
    text = "# header\na: 1  # trailing\n\nb: '#not a comment'\n"
    assert parse(text) == {"a": 1, "b": "#not a comment"}


def test_mini_parser_rejects_tabs():
    with pytest.raises(ScenarioError,
                       match=r"^f\.yaml:2: .*'\\t' that cannot start"):
        parse("a:\n\tb: 1\n")


def test_mini_parser_rejects_duplicate_keys():
    with pytest.raises(ScenarioError,
                       match=r"^f\.yaml:2: .*duplicate key 'a'"):
        parse("a: 1\na: 2\n")
    # A scenario with two schedule blocks used to compile only the last.
    with pytest.raises(ScenarioError,
                       match=r"^f\.yaml:3: .*duplicate key 'schedule'"):
        parse("top:\n  schedule: 1\n  schedule: 2\n")
    with pytest.raises(ScenarioError, match="duplicate key 'k'"):
        parse("a: {k: 1, k: 2}\n")
    # The same key in sibling mappings is not a duplicate.
    assert parse("- {k: 1}\n- {k: 2}\n") == [{"k": 1}, {"k": 2}]


def test_mini_parser_rejects_unterminated_flow():
    with pytest.raises(ScenarioError, match=r"^f\.yaml:2: .*expected ','"):
        parse("a: [1, 2\n")


def test_error_carries_file_and_line(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("a: 1\n\tb: 2\n")
    with pytest.raises(ScenarioError, match=r"bad\.yaml:2: "):
        load_yaml_file(str(path))


def test_load_yaml_file_missing(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_yaml_file(str(tmp_path / "nope.yaml"))


def test_pyyaml_error_is_one_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1, 2\nb: }\n")
    with pytest.raises(ScenarioError) as exc:
        load_yaml_file(str(path))
    assert "\n" not in str(exc.value)
