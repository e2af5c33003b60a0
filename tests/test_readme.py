import fnmatch
import os
import re
import shlex

import fedpricing
from fedpricing.cli import main
from fedpricing.experiment import CONFIG_KEYS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_the_library_example_runs(capsys):
    with open(README) as f:
        text = f.read()
    section = text[text.index("### Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3


def test_the_step_by_step_cli_block_writes_what_the_cli_table_names(tmp_path, capsys):
    with open(README) as f:
        text = f.read()
    section = text[text.index("## CLI"):text.index("### Configuration")]
    # The files each subcommand's row names, as globs: `equilibrium_<scheme>.json`
    # matches equilibrium_*.json.
    named = {}
    for command, what in re.findall(r"^\| `([\w-]+)`\s*\| (.*) \|$", section, re.MULTILINE):
        named[command] = [re.sub(r"<\w+>", "*", name)
                          for name in re.findall(r"`([^`]+\.\w+)`", what)]
    block = re.search(r"Step by step:\n\n```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) == 4
    for line in lines:
        argv = shlex.split(line.replace("runs/demo", str(tmp_path)))
        assert argv[0] == "fedpricing"
        before = set(os.listdir(tmp_path))
        assert main(argv[1:]) == 0, line
        capsys.readouterr()
        written = set(os.listdir(tmp_path)) - before
        assert named[argv[1]], argv[1]
        for pattern in named[argv[1]]:
            assert fnmatch.filter(written, pattern), (line, pattern, sorted(written))


def test_the_library_section_lists_the_package_roots_names():
    with open(README) as f:
        text = f.read()
    listed = text[text.index("The package root exports"):text.index("The one-shard training")]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(fedpricing.__all__)
    assert f"exports {len(fedpricing.__all__)} names" in listed


def test_the_configuration_table_is_the_config_table():
    with open(README) as f:
        text = f.read()
    section = text[text.index("### Configuration"):text.index("### Library")]
    rows = re.findall(r"^\| (`\w+` \|.*) \|$", section, re.MULTILINE)
    expected = []
    for key, row in CONFIG_KEYS.items():
        default = "null" if row.default is None else row.default
        # A rule's text names the values it reads, which the README leaves out.
        must = [row.kind[1]] + [re.sub(r" \{\w+\}", "", rule) for _, rule in row.rules]
        expected.append(f"`{key}` | {row.group} | `{default}` | "
                        + ("; ".join(filter(None, must)) or "—"))
    assert rows == expected
