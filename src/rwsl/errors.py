"""Exception types shared across the package."""


class EdgeListParseError(ValueError):
    """A line of an edge-list file could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class NodeIdRangeError(ValueError):
    """A node id fell outside [0, n_nodes)."""


class AlreadyAugmentedError(ValueError):
    """Self-loop augmentation requested on a graph that already has it."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; usually the learning rate is
    too high for the data scale."""


class ClaimCheckError(RuntimeError):
    """A numerical claim check failed within the sampled range. Signals a
    failed verification, not an internal bug."""


class DenseEigenLimitError(ValueError):
    """Graph exceeds the node-count limit of the dense eigensolver path."""


class CacheMismatchError(ValueError):
    """A filtered-feature cache header does not match the requested
    configuration or graph."""


class PipelineStageError(RuntimeError):
    """Wraps a failure inside a named pipeline stage so the CLI can map it
    to a stable exit code."""

    STAGE_EXIT_CODES = {
        "config": 2,
        "load": 3,
        "filter": 4,
        "pretrain": 5,
        "train": 6,
        "eval": 7,
        "write": 8,
        "bench": 9,
        "spectral": 10,
    }

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

    @property
    def exit_code(self):
        return self.STAGE_EXIT_CODES.get(self.stage, 1)


def run_stage(stage, fn, *args, **kwargs):
    """Call ``fn``; any failure is raised as a ``PipelineStageError`` of
    ``stage`` (one already tagged keeps its stage)."""
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc
