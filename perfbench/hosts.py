"""The benchmark's hosts process: the first party and the off-site store.

    python3 perfbench/hosts.py --seed N --trace 0|1

Serves both off-site roles on 127.0.0.1 ephemeral ports, through the public
`serve_firstparty` and `serve_store`:

- the first party, with its default 11 ms photo delay (`facebook_cdn`);
- a memory store with the 12 ms `imgur` delay.

Once both listen it prints one JSON line with their base URLs, then reads
commands from standard input, one per line:

    reset   zero the host-side call records and answer "ok"
    dump    print the call records as one JSON line
    stop    exit

End of input counts as `stop`, so the process ends with its parent. With
`--trace 1` the service methods the HTTP handlers call are wrapped; each
call is recorded under a `host.*` name as [wall ms, handler-thread CPU ms].
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class CallLog:
    """Per-name [wall ms, CPU ms] of each call, shared by handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._calls: dict[str, list[list[float]]] = {}

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                call = [(time.perf_counter() - t0) * 1000.0,
                        (time.thread_time() - c0) * 1000.0]
                with self._lock:
                    self._calls.setdefault(name, []).append(call)
        return timed

    def reset(self) -> None:
        with self._lock:
            self._calls = {}

    def dump(self) -> dict[str, list[list[float]]]:
        with self._lock:
            return {k: list(v) for k, v in self._calls.items()}


def _stop_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "r2o" / "__init__.py").is_file():
        print(f"hosts: no r2o package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from r2o import firstparty, store

    signal.signal(signal.SIGTERM, _stop_on_signal)
    # ids minted by the hosts follow the seed, so the same seed gives the
    # same locators, pages and pseudo-images
    store.seed_ids(args.seed)
    firstparty.seed_ids(args.seed)

    log = CallLog()
    service = firstparty.FirstPartyService()
    backing = store.preset_store("imgur")
    if args.trace:
        service.get_photo_bytes = log.wrap("host.get_photo_bytes",
                                           service.get_photo_bytes)
        service.render_album_page = log.wrap("host.render_album_page",
                                             service.render_album_page)
        service.upload_photo = log.wrap("host.fp_upload",
                                        service.upload_photo)
        backing.fetch = log.wrap("host.store_fetch", backing.fetch)
        backing.upload = log.wrap("host.store_upload", backing.upload)

    with firstparty.serve_firstparty(("127.0.0.1", 0), service) as fp_srv, \
            store.serve_store(("127.0.0.1", 0), backing) as st_srv:
        print(json.dumps({"firstparty": fp_srv.base_url,
                          "store": st_srv.base_url}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                log.reset()
                print("ok", flush=True)
            elif command == "dump":
                print(json.dumps(log.dump()), flush=True)
            elif command == "stop":
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
