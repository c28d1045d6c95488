#include "textflag.h"

// func prefetchBins(base unsafe.Pointer, bins []int, shift uint)
TEXT ·prefetchBins(SB), NOSPLIT, $0-40
	MOVD base+0(FP), R0
	MOVD bins_base+8(FP), R1
	MOVD bins_len+16(FP), R2
	MOVD shift+32(FP), R3
	CBZ R2, done

loop:
	MOVD.P 8(R1), R4
	LSL R3, R4, R4
	ADD R4>>1, R0, R5
	PRFM (R5), PLDL1KEEP
	SUB $1, R2, R2
	CBNZ R2, loop

done:
	RET
