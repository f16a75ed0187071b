"""YAML loading for scenario and matrix files.

Parsing is PyYAML's ``safe_load`` with one tightening: a mapping that
names the same key twice is rejected instead of silently keeping the
last value (two ``schedule:`` blocks would otherwise compile only the
second).  Every failure surfaces as a one-line
:class:`~repro.errors.ScenarioError` carrying ``file:line``.
"""

import yaml

from repro.errors import ScenarioError


class _UniqueKeyLoader(yaml.SafeLoader):
    """``SafeLoader`` that rejects duplicate mapping keys."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    "duplicate key %r" % (key,), key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_yaml_file(path):
    """Parse one YAML file into plain dict/list/scalar data."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ScenarioError("cannot read %s: %s" % (path, error))
    return parse_yaml(text, label=str(path))


def parse_yaml(text, label="<string>"):
    """Parse YAML text; raises one-line :class:`ScenarioError`."""
    try:
        return yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as error:
        mark = getattr(error, "problem_mark", None)
        where = ("%s:%d" % (label, mark.line + 1)
                 if mark is not None else label)
        problem = getattr(error, "problem", None) or str(error)
        raise ScenarioError(
            "%s: YAML parse error: %s" % (where, " ".join(
                str(problem).split()))
        )
