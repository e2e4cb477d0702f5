"""README.md as an executable document.

Five parts of the README are checked against the code: the Python example
runs and its commented results hold; the weak-spec `layercap region`
example shows the command's own output; the exit codes named in the text
are cli's; the mass literals the text lists are read or refused as it
says; and the command-line synopsis names exactly the subcommands, options
and choices of the parser.
"""

import argparse
import ast
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from layercap import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang):
    """The README's fenced code blocks opened with ```lang, in order."""
    out, body = [], None
    for line in README.splitlines(keepends=True):
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            body, info = [], line[3:].strip()
        else:
            if info == lang:
                out.append("".join(body))
            body = None
    return out


def test_python_example_runs_and_its_comments_hold():
    [code] = blocks("python")
    namespace = {}
    checked, last = [], None
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        line = code.splitlines()[node.lineno - 1]
        comment = line.partition("#")[2].strip()
        if comment.startswith("same value"):
            assert value == last, source
            checked.append(source)
        elif comment.startswith(("'", "Fraction(", "(Fraction(")):  # the value's repr
            assert repr(value) == comment, source
            checked.append(source)
        last = value
    assert checked == ["classify(spec).regime", "weak_sum_capacity(spec)",
                       "region.support(1, 1)", "weak_corner(spec, half).corner"]


def test_region_example_is_the_commands_output(tmp_path, capsys):
    spec = next(b for b in blocks("json") if '"n11"' in b)
    [shown] = [b for b in blocks("") if b.startswith("$ layercap region")]
    command, _, text = shown.partition("\n")
    argv = shlex.split(command)[2:]
    path = tmp_path / argv[argv.index("--spec") + 1]
    path.write_text(spec)
    argv[argv.index("--spec") + 1] = str(path)
    assert cli.main(argv) == cli.EXIT_OK
    output = json.loads(capsys.readouterr().out)
    # the example elides the later constraints with "..."
    doc = json.loads(re.sub(r",\s*\.\.\.", "", text))
    shown_rows = doc.pop("constraints")
    assert 0 < len(shown_rows) < len(output["constraints"])
    assert output.pop("constraints")[:len(shown_rows)] == shown_rows
    assert doc == output


def test_exit_codes_in_the_text_are_clis():
    text = README[README.index("Exit codes:"):]
    text = text[:text.index("\n\n")]
    codes = dict((word, int(code)) for code, word in re.findall(r"`(\d+)` (\w+)", text))
    assert codes == {"success": cli.EXIT_OK, "spec": cli.EXIT_PARSE,
                     "verification": cli.EXIT_VERIFY}
    # the first rejected --grid-steps is named among the bad values
    assert f"`--grid-steps {cli.MAX_GRID_STEPS + 1}`" in text


def test_the_mass_literals_in_the_text_read_as_it_says():
    # each literal before "is read" or "are read" reads through cli._mass to
    # the value it writes, and each before "refused" is refused; a quoted
    # literal is a JSON string, a bare one a JSON number
    text = README[README.index("A mass is"):]
    text = text[:text.index("A number is never a string")]
    verdicts = {"read": [], "refused": []}
    for literals, verdict in re.findall(r"((?:`[^`]+`,?\s+(?:and\s+)?)+)(?:is|are) (read|refused)",
                                        text):
        verdicts[verdict] += re.findall(r"`([^`]+)`", literals)
    assert len(verdicts["read"]) == 9 and len(verdicts["refused"]) == 5
    for verdict, literals in verdicts.items():
        for literal in literals:
            quoted = literal.startswith('"')
            written = json.loads(literal) if quoted else literal
            raw = written if quoted else cli._JsonNumber(written)
            if verdict == "refused":
                with pytest.raises(cli.SpecFileError):
                    cli._mass(raw, "n11[0]")
                continue
            # this Python's Fraction reads it once "_" and the spaces around
            # "/" are gone
            n, d = cli._mass(raw, "n11[0]")
            assert Fraction(n, d) == Fraction(re.sub(r"\s*/\s*", "/", written).replace("_", ""))


def synopsis():
    """{subcommand: (options, ranges)} as the README's synopsis writes it:
    each option, or the positional, with its choices or None, and the upper
    end of each option written as a range lo..hi."""
    [text] = [b for b in blocks("") if b.startswith("layercap region")]
    out = {}
    for entry in re.split(r"\n(?=layercap )", text.strip()):
        name, *words = entry.split()[1:]
        options, ranges = {}, {}
        for word, arg in zip(words, words[1:] + [""]):
            word, arg = word.strip("[]"), arg.strip("[]")
            if word.startswith("{"):
                options["positional"] = word.strip("{}").split("|")
            elif word.startswith("--"):
                options[word] = arg.split("|") if "|" in arg else None
                if ".." in arg:
                    ranges[word] = int(arg.split("..")[1])
        out[name] = options, ranges
    return out


def parser_synopsis():
    """{subcommand: options} as cli.build_parser() defines them."""
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, parser in sub.choices.items():
        options = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            key = action.option_strings[0] if action.option_strings else "positional"
            options[key] = list(action.choices) if action.choices else None
        out[name] = options
    return out


def test_synopsis_is_the_parsers():
    documented = synopsis()
    assert {name: options for name, (options, _) in documented.items()} == parser_synopsis()
    assert documented["region"][1] == {"--grid-steps": cli.MAX_GRID_STEPS}
