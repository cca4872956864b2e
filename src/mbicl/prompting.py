"""Prompt assembly and completion parsing.

A prompt is: instruction, then one block per example, then the query block
with an empty simple-sentence slot, all joined by a separator. Rendering is
byte-exact for identical inputs.
"""

from dataclasses import dataclass
from pathlib import Path

from .corpus import Sentence
from .errors import DataError

COMPLEX_MARKER = "Complex sentence:"
SIMPLE_MARKER = "Simple sentence:"

DEFAULT_INSTRUCTION = "Simplify the following complex sentences."
DEFAULT_EXAMPLE_FORMAT = "Complex sentence: {c}\nSimple sentence: {r}"
DEFAULT_QUERY_FORMAT = "Complex sentence: {c}\nSimple sentence:"
DEFAULT_SEPARATOR = "\n\n"


@dataclass(frozen=True)
class PromptTemplate:
    instruction: str = DEFAULT_INSTRUCTION
    example_format: str = DEFAULT_EXAMPLE_FORMAT
    query_format: str = DEFAULT_QUERY_FORMAT
    separator: str = DEFAULT_SEPARATOR

    def __post_init__(self):
        for slot in ("{c}", "{r}"):
            if self.example_format.count(slot) != 1:
                raise DataError(f"template is missing slot {slot}")
        if self.query_format.count("{c}") != 1:
            raise DataError("template is missing slot {c}")


@dataclass(frozen=True)
class Prompt:
    text: str


def load_template(path):
    """Template file: instruction / example format / query format, separated
    by lines containing only ``---``. The separator stays at its default."""
    sections = Path(path).read_text(encoding="utf-8").split("\n---\n")
    if len(sections) != 3:
        raise DataError(
            f"{path}: expected 3 sections separated by --- lines, found {len(sections)}"
        )
    instruction, example_format, query_format = (s.strip("\n") for s in sections)
    return PromptTemplate(
        instruction=instruction,
        example_format=example_format,
        query_format=query_format,
    )


def build_prompt(template, examples, query):
    """Render instruction + one block per pair of *examples* + query block.

    No examples (None or an empty sequence) gives a zero-shot prompt.
    """
    blocks = [template.instruction]
    for pair in examples or ():
        blocks.append(
            template.example_format.replace("{c}", pair.source.raw).replace(
                "{r}", pair.simple.raw
            )
        )
    blocks.append(template.query_format.replace("{c}", query.raw))
    return Prompt(text=template.separator.join(blocks))


def parse_completion(raw_model_output):
    """Extract the simplified sentence from a raw model completion.

    The completion is truncated at the first continuation of the example
    pattern, then the first non-empty paragraph is returned with internal
    newlines collapsed to spaces.
    """
    text = raw_model_output
    marker_pos = text.find(COMPLEX_MARKER)
    if marker_pos != -1:
        text = text[:marker_pos]
    text = text.strip()
    if text.startswith(SIMPLE_MARKER):
        text = text[len(SIMPLE_MARKER) :].strip()
    for paragraph in text.split("\n\n"):
        paragraph = " ".join(paragraph.split())
        if paragraph:
            return Sentence.from_raw(paragraph)
    raise DataError("model returned no usable text")
