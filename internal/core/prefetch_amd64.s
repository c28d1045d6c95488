#include "textflag.h"

// func prefetchBins(base unsafe.Pointer, bins []int, shift uint)
TEXT ·prefetchBins(SB), NOSPLIT, $0-40
	MOVQ base+0(FP), AX
	MOVQ bins_base+8(FP), SI
	MOVQ bins_len+16(FP), DX
	MOVQ shift+32(FP), CX
	TESTQ DX, DX
	JEQ done

loop:
	MOVQ (SI), BX
	SHLQ CX, BX
	SHRQ $1, BX
	PREFETCHT0 (AX)(BX*1)
	ADDQ $8, SI
	DECQ DX
	JNE loop

done:
	RET
