package mathx

// seedAVX2Words is the number of state words the AVX2 seed writes:
// every whole four-word group. seedWords finishes words 604–606.
const seedAVX2Words = rngLen &^ 3

// parkMillerLanes is parkMillerPow transposed to lane-major rows,
// parkMillerLanes[k][i] = parkMillerPow[i][k], so the vector seed
// loads four consecutive words' powers with one move. Rows are padded
// to a whole number of four-word groups.
var parkMillerLanes = func() (t [3][rngLen + 1]uint64) {
	for i := range parkMillerPow {
		for k, p := range parkMillerPow[i] {
			t[k][i] = p
		}
	}
	return t
}()

// seedVector writes state words 0 through seedAVX2Words−1 for the
// reduced seed x and returns the first word it left unwritten.
func seedVector(vec *[rngLen]int64, x uint64) int {
	seedAVX2(vec, &parkMillerLanes, &rngCooked, x)
	return seedAVX2Words
}

// seedAVX2 computes, for each of the first seedAVX2Words state words,
// the same three Park–Miller values as seedWords (one VPMULUDQ and two
// Mersenne folds per value, four words per step), and stores the
// shifted, XORed and cooked word into vec. Implemented in
// source_amd64.s.
//
//go:noescape
func seedAVX2(vec *[rngLen]int64, pow *[3][rngLen + 1]uint64, cooked *[rngLen]int64, x uint64)

// cpuid and xgetbv are the CPU feature queries behind hasAVX2.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
