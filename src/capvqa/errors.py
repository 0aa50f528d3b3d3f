"""Exception types shared across the harness.

The CLI maps these onto exit codes: schema/argument problems exit 2,
strict-mode completeness failures exit 1.
"""


class SchemaError(ValueError):
    """A file or record violates the expected schema.

    `locator` points at the offending record (JSON path or id) so the
    message is always actionable.
    """

    def __init__(self, message: str, locator: str | None = None):
        self.locator = locator
        if locator:
            message = f"{message} (at {locator})"
        super().__init__(message)


class ValidationFailure(Exception):
    """Strict-mode check failed: the submission is incomplete or misaligned."""
