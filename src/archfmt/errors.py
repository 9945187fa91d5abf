"""Exception hierarchy shared by all archfmt modules.

Every error that refers to a position in a file carries the file name and
byte offset so callers can report actionable diagnostics.
"""


class ArchfmtError(Exception):
    """Base class for all toolkit errors."""


class IoFailure(ArchfmtError):
    pass


# --- WARC layer ---

class LocatedError(ArchfmtError):
    """A data error at a byte offset of a file."""

    def __init__(self, file, offset, detail):
        super().__init__(f"{file}@{offset}: {detail}")
        self.file = file
        self.offset = offset


class MalformedHeader(LocatedError):
    def __init__(self, file, offset, detail):
        super().__init__(file, offset, f"malformed WARC header: {detail}")


class LengthMismatch(LocatedError):
    pass


class GzipCorrupt(LocatedError):
    def __init__(self, file, offset, detail):
        super().__init__(file, offset, f"corrupt gzip member: {detail}")


class BadOffset(LocatedError):
    def __init__(self, file, offset, detail="no record starts here"):
        super().__init__(file, offset, detail)


# --- CDX layer ---

class NotAbsoluteUrl(ArchfmtError):
    pass


class BadCdxLine(ArchfmtError):
    """A CDX line that does not decode, at file:line_no; at file@offset when
    the read went through the summary and so does not know the line's number."""

    def __init__(self, file, line_no, detail, offset=None):
        super().__init__(f"{file}:{line_no}: {detail}" if line_no is not None else f"{file}@{offset}: {detail}")
        self.line_no = line_no
        self.offset = offset


class BadFieldCount(BadCdxLine):
    pass


class BadSummary(LocatedError):
    """A CDX summary that does not describe its CDX: located in the summary,
    or in the CDX where the two disagree."""


class BadDate(ArchfmtError):
    """A time not in its text form, or outside the years 1000-9999."""


# --- container formats ---

class SchemaMismatch(ArchfmtError):
    pass


class UnsortedInput(ArchfmtError):
    def __init__(self, row_index, detail="sort key violated"):
        super().__init__(f"row {row_index}: {detail}")
        self.row_index = row_index


class UnknownColumn(ArchfmtError):
    pass


class StatlessColumn(ArchfmtError):
    pass


class BadMagic(ArchfmtError):
    pass


class FooterCorrupt(ArchfmtError):
    pass


class DecompressFailure(ArchfmtError):
    pass


class SyncLost(LocatedError):
    def __init__(self, file, offset, detail="sync marker not found"):
        super().__init__(file, offset, detail)


# --- convert / query / bench ---

class BackendUnavailable(ArchfmtError):
    pass


class Unachievable(ArchfmtError):
    pass


class EquivalenceFailure(ArchfmtError):
    pass


class BadCsv(ArchfmtError):
    pass
