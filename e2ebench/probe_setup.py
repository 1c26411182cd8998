"""One set-up sample: import ``repro`` and make a kernel backend ready.

Run in a fresh process as ``python3 e2ebench/probe_setup.py <backend>``; it
prints one JSON object.  ``setup_s`` runs from just before ``import repro``
to the backend being ready to serve: for ``native`` that is loading the
compiled kernel library from the JIT cache and resolving every kernel.
"""

import json
import sys
import time


def main(backend_name: str) -> dict:
    start = time.perf_counter()
    import repro

    backend = repro.get_backend(backend_name)
    report = {}
    if backend.name == "native":
        status = backend.kernel_status()
        report = {
            "provider": backend.provider_name(),
            "jit_cache": backend.jit_cache_state(),
            "native_fallbacks": sum(1 for s in status.values() if s["mode"] == "fallback"),
        }
    report["setup_s"] = time.perf_counter() - start
    report["repro"] = repro.__file__
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
