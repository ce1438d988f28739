"""subcollect: extract and evaluate topic/event focused sub-collections
from WARC web archives. The package re-exports nothing, so importing it
loads no module and a command loads only its own: import from the modules."""

__version__ = "0.1.0"
