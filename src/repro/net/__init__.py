"""Batched message-passing substrate between workers."""

from . import wire
from .message import (
    Message,
    RequestBatch,
    ResponseBatch,
    TaskBatchTransfer,
)
from .transport import Transport

__all__ = [
    "Message",
    "RequestBatch",
    "ResponseBatch",
    "TaskBatchTransfer",
    "Transport",
    "wire",
]
