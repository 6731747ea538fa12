GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race bench fuzz lint fmt clean

all: lint test

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race: build
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Each wire-codec fuzz target runs for FUZZTIME (go test allows one
# -fuzz pattern per invocation, hence the loop). Each codec target body
# is generic over the element width and instantiated at float64 and at
# float32 (the *32 names). Several names extend another by suffix
# (FuzzDecodeUplink, FuzzDecodeUplinkSign), so the pattern is anchored.
# FuzzDecodeMessage fuzzes the control-plane message decoder, and
# FuzzMedianCols the coordinate-median kernel against quickselect.
fuzz: build
	for t in FuzzParseFrameHeader FuzzReadFrame FuzzDecodeParams \
	         FuzzParamsDeltaRoundTrip FuzzDecodeGradFrame FuzzGradFrameRoundTrip \
	         FuzzUplinkRoundTrip FuzzDecodeUplink FuzzUplinkQuantRoundTrip \
	         FuzzDecodeUplinkSign FuzzDecodeUplinkInt8 FuzzDecodeMomentFrame \
	         FuzzDecodeGradFrame32 FuzzParams32DeltaRoundTrip FuzzDecodeParams32 \
	         FuzzDecodeUplink32 FuzzUplinkQuant32RoundTrip FuzzDecodeUplink32Sign \
	         FuzzDecodeUplink32Int8; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) ./internal/wire || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzMedianCols$$' -fuzztime $(FUZZTIME) ./internal/linalg

lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
