#include "textflag.h"

// func hint(addrs *uintptr, n int)
TEXT ·hint(SB), NOSPLIT, $0-16
	MOVD	addrs+0(FP), R0
	MOVD	n+8(FP), R1
	CMP	$0, R1
	BLE	done
loop:
	MOVD.P	8(R0), R2
	PRFM	(R2), PLDL1KEEP
	SUBS	$1, R1, R1
	BNE	loop
done:
	RET
