import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import host  # noqa: E402  (needs the path above)

host.use_checkout_sources()
