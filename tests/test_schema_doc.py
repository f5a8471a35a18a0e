"""The defaults documented in docs/config-schema.md are the parser's."""
import json
import re
from pathlib import Path

from swarmsim.config import parse_config, to_dict

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config-schema.md"
CELL_SPLIT = re.compile(r"(?<!\\)\|")  # a type cell may hold an escaped "\|"


def documented_defaults() -> dict:
    """Section name ("" for the top level) -> field -> documented default,
    from every table of the schema doc that has a default column."""
    sections: dict[str, dict] = {}
    section = None
    columns = None
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = re.match(r"## `(\w+)`", line)
            section = "" if line == "## Top level" else heading and heading.group(1)
            columns = None
            continue
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in CELL_SPLIT.split(line)[1:-1]]
        if columns is None:
            columns = cells
        elif "default" in columns and not set(cells[0]) <= set("-"):
            name = cells[0].strip("`")
            default = cells[columns.index("default")].strip("`")
            sections.setdefault(section, {})[name] = json.loads(default)
    return sections


def test_documented_defaults_equal_the_parsed_defaults():
    defaults = to_dict(parse_config({}))
    documented = documented_defaults()
    top = {k: v for k, v in defaults.items() if not isinstance(v, (dict, list))}
    nested = {k: v for k, v in defaults.items() if isinstance(v, dict)}
    assert set(documented) == {""} | set(nested)
    # json text tells 6 from 6.0, so types are compared along with values
    assert json.dumps(documented.pop(""), sort_keys=True) == json.dumps(top, sort_keys=True)
    assert json.dumps(documented, sort_keys=True) == json.dumps(nested, sort_keys=True)
