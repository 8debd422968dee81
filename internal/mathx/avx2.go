package mathx

import (
	"os"
	"strings"
)

// avx2 is HasAVX2's answer, decided once at init.
var avx2 = hasAVX2() && !avx2Off(os.Getenv("GODEBUG"))

// HasAVX2 reports whether this process runs AVX2 kernels: an amd64 CPU
// with AVX2 whose operating system saves the YMM registers, unless
// GODEBUG turns AVX2 off, as it does for the standard library's own
// kernels. It is decided once, at init, and it is the one switch: the
// generator's seed and fills, the erfc lanes and the lane kernels of
// other packages all key on it. Where it is false each of them runs its
// pure-Go loop, which gives the same bits.
func HasAVX2() bool { return avx2 }

// avx2Off reports whether a GODEBUG value turns AVX2 off, read as the
// runtime reads its cpu options: comma-separated key=value settings of
// which cpu.avx2, cpu.avx and cpu.all count here, "off" turning AVX2 off
// and "on" back on, the last one winning. Other keys, and values other
// than "on" and "off", which the runtime ignores, change nothing.
func avx2Off(godebug string) bool {
	off := false
	for _, field := range strings.Split(godebug, ",") {
		switch key, value, _ := strings.Cut(field, "="); key {
		case "cpu.avx2", "cpu.avx", "cpu.all":
			switch value {
			case "off":
				off = true
			case "on":
				off = false
			}
		}
	}
	return off
}
