#!/bin/sh
# Replays a stalled peer against a daemon and checks that it still shuts
# down: start the daemon, open a raw unix-socket connection, read the
# hello, write the first bytes of a frame tag, stall, send SIGTERM, and
# require the daemon to exit 0 within 10 s.
#
# Usage: ci/stalled_peer/replay.sh SOCKET HELLO_TAG BYTES -- DAEMON_CMD...
#   SOCKET     unix socket path the daemon listens on (DAEMON_CMD's --listen)
#   HELLO_TAG  4-byte tag the daemon greets with (HELO for serve, WHLO for worker)
#   BYTES      partial frame tag the peer sends before stalling (e.g. QR, WJ)
set -eu

sock=$1 tag=$2 bytes=$3
shift 3
[ "$1" = "--" ] && shift

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$@" 2> "$work/daemon.err" &
daemon_pid=$!
for _ in $(seq 100); do
  grep -q "listening on" "$work/daemon.err" && break
  sleep 0.1
done

python3 - "$sock" "$tag" "$bytes" "$work/stalled" <<'EOF' &
import socket, sys, time
sock, tag, data, marker = sys.argv[1:]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock)
hello = b""
while len(hello) < 8:
    chunk = s.recv(8 - len(hello))
    if not chunk:
        sys.exit("connection closed before the hello")
    hello += chunk
if hello[:4] != tag.encode():
    sys.exit(f"hello {hello!r} is not {tag}")
s.sendall(data.encode())
open(marker, "w").close()
time.sleep(60)
EOF
client_pid=$!
for _ in $(seq 100); do
  test -e "$work/stalled" && break
  sleep 0.1
done
test -e "$work/stalled"
sleep 0.2

kill -TERM "$daemon_pid"
status=0
timeout 10 sh -c "while kill -0 $daemon_pid 2>/dev/null; do sleep 0.1; done" \
  || status=$?
if [ "$status" -ne 0 ]; then
  echo "daemon still running 10 s after SIGTERM" >&2
  kill -KILL "$daemon_pid" "$client_pid" 2>/dev/null || true
  exit 1
fi
wait "$daemon_pid"
kill "$client_pid" 2>/dev/null || true
grep -q "shut down" "$work/daemon.err"
