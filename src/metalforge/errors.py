"""Exception hierarchy shared by all metalforge services.

Every error carries a stable ``code`` string; the HTTP-style API returns it
verbatim and the CLI prints it on failure, so codes are part of the public
contract and must not change.
"""


class MetalforgeError(Exception):
    """Base class for all service errors."""

    code = "InternalError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


# image store

class DuplicateName(MetalforgeError):
    code = "DuplicateName"


class InvalidSize(MetalforgeError):
    code = "InvalidSize"


class NotFound(MetalforgeError):
    code = "NotFound"


class AccessDenied(MetalforgeError):
    code = "AccessDenied"


class ChainTooDeep(MetalforgeError):
    code = "ChainTooDeep"


class OutOfBounds(MetalforgeError):
    code = "OutOfBounds"


class ImmutableImage(MetalforgeError):
    code = "ImmutableImage"


class NotAClone(MetalforgeError):
    code = "NotAClone"


class HasChildren(MetalforgeError):
    code = "HasChildren"


class ImageInUse(MetalforgeError):
    code = "ImageInUse"


class StorageFailure(MetalforgeError):
    code = "StorageFailure"


# target gateway

class AlreadyExported(MetalforgeError):
    code = "AlreadyExported"


class TargetGone(MetalforgeError):
    code = "TargetGone"


# netboot configuration

class ConfigExists(MetalforgeError):
    code = "ConfigExists"


class TargetNotFound(MetalforgeError):
    code = "TargetNotFound"


class NoBootConfig(MetalforgeError):
    code = "NoConfig"


# node pool / isolation

class DuplicateMac(MetalforgeError):
    code = "DuplicateMac"


class NodeBusy(MetalforgeError):
    code = "NodeBusy"


class PoolExhausted(MetalforgeError):
    code = "PoolExhausted"


class NotAllocated(MetalforgeError):
    code = "NotAllocated"


class WrongTenant(MetalforgeError):
    code = "WrongTenant"


class NodeNotFailed(MetalforgeError):
    code = "NodeNotFailed"


# simulator

class NotBooted(MetalforgeError):
    code = "NotBooted"


# orchestrator / API

class InvalidRequest(MetalforgeError):
    code = "InvalidRequest"


class DirtyEnvironment(MetalforgeError):
    code = "DirtyEnvironment"


class RootBusy(MetalforgeError):
    """Another process has the persistence root open."""

    code = "RootBusy"


class RollbackReport(MetalforgeError):
    """A provisioning step failed and the flow was fully compensated.

    Wraps the failing step name and the underlying error code so clients can
    distinguish "rolled back because the pool emptied" from "rolled back
    because the export collided".
    """

    code = "RollbackReport"

    def __init__(self, failing_step: str, cause: MetalforgeError):
        self.failing_step = failing_step
        self.cause_code = cause.code
        super().__init__(f"step {failing_step} failed ({cause.code}): {cause}")


def error_by_code(code: str) -> type[MetalforgeError]:
    """Resolve a code string back to its exception class."""
    cls = _BY_CODE.get(code)
    if cls is None:
        return MetalforgeError
    return cls


def _collect() -> dict[str, type[MetalforgeError]]:
    out: dict[str, type[MetalforgeError]] = {}
    stack = [MetalforgeError]
    while stack:
        cls = stack.pop()
        out[cls.code] = cls
        stack.extend(cls.__subclasses__())
    return out


_BY_CODE = _collect()
