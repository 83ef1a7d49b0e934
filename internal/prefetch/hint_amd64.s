#include "textflag.h"

// func hint(addrs *uintptr, n int)
TEXT ·hint(SB), NOSPLIT, $0-16
	MOVQ	addrs+0(FP), SI
	MOVQ	n+8(FP), CX
	TESTQ	CX, CX
	JLE	done
loop:
	MOVQ	(SI), AX
	PREFETCHT0	(AX)
	ADDQ	$8, SI
	DECQ	CX
	JNZ	loop
done:
	RET
