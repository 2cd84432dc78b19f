"""Transactional write path (ISSUE-8): client WAL, group commit,
incremental share deltas, crash recovery, and epoch time travel."""

from .groupcommit import GroupCommitEngine
from .manager import KILL_PHASES, TransactionManager
from .wal import WriteAheadLog

__all__ = [
    "GroupCommitEngine",
    "KILL_PHASES",
    "TransactionManager",
    "WriteAheadLog",
]
