import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402

workloads.use_checkout_source()
