"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all sslsq errors."""


class InvalidInputError(Error):
    """A value violates a documented precondition (range, finiteness, ...)."""


class DimensionError(Error):
    """Array shapes are inconsistent with each other or with the model."""


class CapacityError(Error):
    """The request exceeds a hard size cap (enumeration, split sizes, ...)."""


class ParseError(Error):
    """A file field could not be parsed.

    ``row`` and ``column`` are 1-based coordinates into the data rows of
    the offending file (header excluded), when known.
    """

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class SchemaError(Error):
    """File contents violate the dataset file format (labels, columns).

    ``row`` is the 1-based data row of an offending ``label`` or
    ``true_label`` field (header excluded), and ``column`` the 1-based
    column of an offending header field, when known.
    """

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DegenerateInputError(Error):
    """Input is structurally empty or degenerate for the operation."""


class DegenerateSplitError(DegenerateInputError):
    """A random split produced an unusable labeled set."""


class NoWitnessError(Error):
    """No non-convexity witness exists for the given data."""
