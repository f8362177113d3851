"""Exception types shared across the package, and `read_json`, the one
reader of a JSON document at a path (a config, a taxonomy, a checkpoint).

Every fault of such a read is the caller's error class, naming the
document and its path once: `<what> <path>: <why>`, where `why` is the
OS's reason (`No such file or directory`, `Is a directory`), `not
UTF-8: …` or `invalid JSON: …` (invalid, nested too deep, or an integer
past Python's digit limit). A document that parses but has the wrong
shape is named the same way: the error the caller's `build` raises
keeps its class, and `why` is its message. So `cli.main` prints each as
one `error: ` line. A frames file is no document: `data` reads it line by
line, and names the line.
"""

import json


class HierfishError(Exception):
    """Base class for all errors raised by hierfish."""


# taxonomy
class DuplicateName(HierfishError):
    pass


class EmptyTaxonomy(HierfishError):
    pass


class MalformedDocument(HierfishError):
    pass


class IndexOutOfRange(HierfishError):
    pass


# model
class EmptyInput(HierfishError):
    pass


class NonFiniteInput(HierfishError):
    pass


class DimensionMismatch(HierfishError):
    """Covers shape mismatches between params, inputs, and the taxonomy."""


class NonFiniteActivation(HierfishError):
    """A forward pass produced inf/nan; usually exploded parameters."""


# training
class LabelOutOfRange(HierfishError):
    pass


class InconsistentLabels(HierfishError):
    pass


class EmptyDataset(HierfishError):
    pass


class DivergedTraining(HierfishError):
    """Non-finite loss during training; learning rate too high."""


# inference / evaluation
class EmptyTrack(HierfishError):
    pass


class InvalidThreshold(HierfishError):
    pass


class EmptyEvalSet(HierfishError):
    pass


class TaxonomyMismatch(HierfishError):
    pass


# data
class InfeasibleConfig(HierfishError):
    pass


class SpeciesTooSmall(HierfishError):
    pass


class MalformedRecord(HierfishError):
    pass


# cli
class ConfigError(HierfishError):
    pass


def read_json(path: str, error: type[HierfishError], what: str, build):
    """`build` of the JSON document at `path`; any fault of its read
    raised as `error`, and any error of `build` as its own class, both
    named `what` (module docstring)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError, RecursionError) as e:
        why = (e.strerror if isinstance(e, OSError) else
               f"not UTF-8: {e}" if isinstance(e, UnicodeDecodeError) else f"invalid JSON: {e}")
        raise error(f"{what} {path}: {why}") from e
    try:
        return build(doc)
    except HierfishError as e:
        raise type(e)(f"{what} {path}: {e}") from e
