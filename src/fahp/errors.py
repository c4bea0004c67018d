"""Exception types raised across the package."""


class FahpError(Exception):
    """Base class for every error this package raises on purpose."""


class MissingColumn(FahpError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} not found in the CSV header")


class DuplicateColumn(FahpError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"column {name!r} appears more than once in the CSV header"
        )


class UnreadableRecord(FahpError):
    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: CSV record cannot be read: {reason}")


class NonNumericCell(FahpError):
    def __init__(self, row: int, column: str, text: str = ""):
        self.row = row
        self.column = column
        self.text = text
        super().__init__(
            f"row {row}, column {column!r}: cell {text!r} is not a number"
        )


class OutOfRange(FahpError):
    def __init__(self, row: int, column: str, value: float):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"row {row}, column {column!r}: value {value!r} outside [0, 4]"
        )


class EmptyDataset(FahpError):
    pass


class TooFewCriteria(FahpError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"need at least 2 criteria, got {n}")


class NoConvergence(FahpError):
    def __init__(self, iterations: int):
        self.iterations = iterations
        super().__init__(
            f"power iteration did not converge within {iterations} iterations"
        )


class OrderTooSmall(FahpError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"consistency index needs order >= 2, got n = {n}")


class UnsupportedOrder(FahpError):
    def __init__(self, n: int, table_size: int):
        self.n = n
        self.table_size = table_size
        super().__init__(
            f"no random index for order {n}; table covers 1..{table_size}"
        )


class ZeroRandomIndex(FahpError):
    def __init__(self, ci: float):
        self.ci = ci
        super().__init__(
            f"random index is 0 but the consistency index is {ci!r}; "
            "ratio undefined"
        )


class UnknownIntensity(FahpError):
    def __init__(self, intensity):
        self.intensity = intensity
        super().__init__(f"intensity {intensity!r} outside the scale table")


class NonPositiveSupport(FahpError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(
            f"reciprocal needs a strictly positive lower support, got {value!r}"
        )


class NonScaleEntry(FahpError):
    def __init__(self, i: int, j: int, value: float):
        self.i = i
        self.j = j
        self.value = value
        super().__init__(
            f"entry ({i}, {j}) = {value!r} is not a 1..9 intensity "
            "or its reciprocal"
        )


class AllZeroDegrees(FahpError):
    def __init__(self):
        super().__init__(
            "every minimum possibility degree is 0; weights cannot be normalized"
        )


class DimensionMismatch(FahpError):
    def __init__(self, data_cols: int, weight_len: int):
        self.data_cols = data_cols
        self.weight_len = weight_len
        super().__init__(
            f"data has {data_cols} criteria but the weight vector has {weight_len}"
        )


class LengthMismatch(FahpError):
    def __init__(self, len_f: int, len_y: int):
        self.len_f = len_f
        self.len_y = len_y
        super().__init__(f"vectors differ in length: {len_f} vs {len_y}")


class EmptyInput(FahpError):
    pass


class UnknownStage(FahpError):
    def __init__(self, stage: str):
        self.stage = stage
        super().__init__(f"unknown dump stage {stage!r}")


class ScaledScoreOverflow(FahpError):
    def __init__(self, label: str, scale: float):
        self.label = label
        self.scale = scale
        super().__init__(
            f"report: scale {scale!r} makes the score of {label!r} non-finite"
        )


class UnknownDerivationRule(FahpError):
    def __init__(self, name: str, known):
        self.name = name
        super().__init__(
            f"unknown derivation rule {name!r}; known rules: {', '.join(known)}"
        )


class GateRejected(FahpError):
    """The comparison matrix failed the consistency-ratio gate."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"consistency ratio {report.cr:.4f} exceeds the 0.1 limit"
        )


class PipelineError(FahpError):
    """Wraps a stage failure so callers can name the offending stage."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {cause}")
