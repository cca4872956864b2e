"""Multi-reference simplification corpora: loading, validation, tokenization,
and the JSONL reader (``read_jsonl``, ``decode``) every input file goes through.

Two on-disk layouts are supported:

* parallel: ``complex.txt`` plus ``ref.0.txt`` ... ``ref.{n-1}.txt``, all
  line-aligned, one sentence per line;
* jsonl: one ``{"id": ..., "source": ..., "references": [...]}`` object
  per line.
"""

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(raw):
    """Lowercase word tokenizer that splits punctuation into its own tokens.

    Deterministic; collapses any amount of whitespace. Empty input gives an
    empty list.
    """
    return _TOKEN_RE.findall(raw.lower())


@dataclass(frozen=True)
class Sentence:
    raw: str
    tokens: tuple = field(compare=False)

    @classmethod
    def from_raw(cls, raw):
        if not isinstance(raw, str):
            raise TypeError(f"sentence must be a string, not {type(raw).__name__}")
        raw = raw.strip()
        if not raw:
            raise DataError("sentence text is empty")
        return cls(raw=raw, tokens=tuple(tokenize(raw)))


@dataclass(frozen=True)
class InstanceGroup:
    """One complex sentence together with its ordered reference simplifications."""

    id: str
    source: Sentence
    references: tuple

    def __post_init__(self):
        if len(self.references) < 1:
            raise DataError(f"instance {self.id!r} has no references")

    @property
    def n_references(self):
        return len(self.references)


@dataclass(frozen=True)
class Corpus:
    name: str
    split: str
    instances: tuple

    def __len__(self):
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)


def read_lines(path):
    """The lines of a line-aligned text file; a blank line is a DataError."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        if not line.strip():
            raise DataError(f"{path}:{i + 1}: empty line")
    return lines


def load_parallel(dir_path, split="validation"):
    """Load the complex.txt / ref.<i>.txt layout from *dir_path*."""
    dir_path = Path(dir_path)
    complex_path = dir_path / "complex.txt"
    if not complex_path.is_file():
        raise DataError(f"{complex_path} not found")
    ref_paths = {}
    for path in dir_path.glob("ref.*.txt"):
        index = re.fullmatch(r"ref\.(0|[1-9][0-9]*)\.txt", path.name)
        if not index:
            raise DataError(f"{path}: reference files are named ref.<i>.txt")
        ref_paths[int(index[1])] = path
    if not ref_paths:
        raise DataError(f"no ref.<i>.txt files in {dir_path}")
    for i in range(len(ref_paths)):
        if i not in ref_paths:
            raise DataError(f"{dir_path / f'ref.{i}.txt'} not found")

    sources = read_lines(complex_path)
    ref_columns = []
    for _, ref_path in sorted(ref_paths.items()):
        lines = read_lines(ref_path)
        if len(lines) != len(sources):
            raise DataError(
                f"{ref_path}: expected {len(sources)} lines, got {len(lines)}"
            )
        ref_columns.append(lines)

    instances = []
    for i, src in enumerate(sources):
        refs = tuple(Sentence.from_raw(col[i]) for col in ref_columns)
        instances.append(
            InstanceGroup(id=str(i), source=Sentence.from_raw(src), references=refs)
        )
    return Corpus(name=dir_path.name, split=split, instances=tuple(instances))


def decode(text, build, path, lineno=1):
    """build(json.loads(text)); a rejected line is reported at ``path:lineno``.

    Malformed input, and a DataError from *build*, is raised as a DataError
    that names the line. *lineno* is the line of *path* that *text* starts on; a
    JSON syntax error is reported at its own line within *text*, and one at
    the end of *text* at its last non-blank line.
    """
    try:
        return build(json.loads(text.rstrip()))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{lineno + exc.lineno - 1}: {exc.msg}") from exc
    except KeyError as exc:
        raise DataError(f"{path}:{lineno}: missing field {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from exc
    except DataError as exc:
        exc.args = (f"{path}:{lineno}: {exc}",)
        raise


def read_jsonl(path, build):
    """[build(obj) for each non-blank line of the JSONL file *path*]."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path} not found")
    with path.open(encoding="utf-8") as fh:
        return [
            decode(line, build, path, lineno)
            for lineno, line in enumerate(fh, start=1)
            if line.strip()
        ]


def _instance_from_json(obj):
    references = obj["references"]
    if not isinstance(references, list):
        raise TypeError("references must be a list")
    return InstanceGroup(
        id=str(obj["id"]),
        source=Sentence.from_raw(obj["source"]),
        references=tuple(Sentence.from_raw(r) for r in references),
    )


def load_jsonl(file_path, split="validation"):
    """Load the one-object-per-line JSONL layout from *file_path*."""
    seen = set()

    def build(obj):
        inst = _instance_from_json(obj)
        if inst.id in seen:
            raise DataError(f"duplicate instance id {inst.id!r}")
        seen.add(inst.id)
        return inst

    file_path = Path(file_path)
    instances = read_jsonl(file_path, build)
    return Corpus(name=file_path.stem, split=split, instances=tuple(instances))


def save_jsonl(corpus, file_path):
    """Write *corpus* in the JSONL layout; load_jsonl round-trips it."""
    with Path(file_path).open("w", encoding="utf-8") as fh:
        for inst in corpus:
            obj = {
                "id": inst.id,
                "source": inst.source.raw,
                "references": [r.raw for r in inst.references],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
