"""Exception hierarchy with machine-readable codes (used for CLI exit codes).

An InputError exits 3 and every other MazurTateError exits 1.
"""


class MazurTateError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    code = "error"
    exit_code = 1


class InputError(MazurTateError):
    code = "input_error"
    exit_code = 3


class NotOrdinary(InputError):
    code = "not_ordinary"


class NotGoodOrdinary(InputError):
    code = "not_good_ordinary"


class RankPositive(InputError):
    code = "rank_positive"


class NotAGenerator(InputError):
    code = "not_a_generator"


class ZeroElement(InputError):
    code = "zero_element"


class LevelTooLarge(InputError):
    code = "level_too_large"


class BoundExceeded(InputError):
    code = "bound_exceeded"


class EigenspaceNotOneDimensional(MazurTateError):
    code = "eigenspace_not_one_dimensional"
    exit_code = 1


class InconsistentEigenvalues(MazurTateError):
    code = "inconsistent_eigenvalues"
    exit_code = 1
