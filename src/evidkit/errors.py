"""Exception types shared across the package.

The CLI maps these onto stable exit codes (config 2, data 3, numeric 4),
so library code should raise the most specific one that applies.
"""


class EvidkitError(Exception):
    """Base class for all evidkit-specific errors."""


class ConfigError(EvidkitError):
    """A configuration value or combination of values is invalid."""


class DataFormatError(EvidkitError):
    """A dataset, CIW, or checkpoint file does not parse or fails validation."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class NonFiniteOutput(DataFormatError):
    """A model whose finite weights overflow float64: its ``what`` for row
    ``row``, the first such row, is not finite. ``what`` is the backbone
    output, the evidence, or a class's total evidence e_pos + e_neg (finite
    evidence whose Beta strength overflows). ``sample`` names that row in
    the message instead of its index."""

    def __init__(self, what, row, sample=None, path=None):
        super().__init__(f"the model's {what} for {sample or f'row {row}'} is not finite "
                         "(its weights overflow float64)", path=path)
        self.what = what
        self.row = row


class TrainingDiverged(EvidkitError):
    """Training produced a non-finite loss or non-finite parameters."""

    def __init__(self, epoch, batch, loss, parameters=False):
        if parameters:
            message = (f"parameters became non-finite in the update at epoch {epoch}, "
                       f"batch {batch} (batch loss {loss!r}); lower the learning rate")
        else:
            message = (f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}; "
                       "lower the learning rate or check the input data")
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
