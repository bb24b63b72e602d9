"""Software model of an FPGA fabric that provisions isolated TEEs on demand."""

from .client_api import (
    Context,
    Direction,
    InvokeResult,
    Operation,
    Session,
    SharedMemory,
    Value,
)
from .config import SimConfig, load_config
from .fabric import Fabric
from .protocol import (
    MailboxFrame,
    OperationId,
    ParamKind,
    ReturnCode,
    TeeError,
    encode_image,
)

from . import wallet  # noqa: F401  - checks for RIPEMD-160 at import

__version__ = "1.0.0"

__all__ = [
    "Context",
    "Direction",
    "Fabric",
    "InvokeResult",
    "MailboxFrame",
    "Operation",
    "OperationId",
    "ParamKind",
    "ReturnCode",
    "Session",
    "SharedMemory",
    "SimConfig",
    "TeeError",
    "Value",
    "encode_image",
    "load_config",
    "__version__",
]
