package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// llcBytes reads the size of cpu0's last-level (index3) cache.
func llcBytes() (int64, error) {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse LLC size %q: %w", s, err)
	}
	return v * mult, nil
}

// probeArrayBytes sizes the probe's arrays at four times the last-level
// cache, so the copy streams from DRAM; 64 MiB is the floor when the cache
// size is unknown.
func probeArrayBytes(llc int64) int64 {
	b := 4 * llc
	if b < 64<<20 {
		b = 64 << 20
	}
	return (b + 1<<20 - 1) &^ (1<<20 - 1)
}

// copyBandwidth is the DRAM bandwidth probe: threads goroutines each copy
// their share of a src array into dst, and the figure is bytes read plus
// bytes written per second, the STREAM "copy" convention. It returns the
// median over reps copies.
func copyBandwidth(arrayBytes int64, threads, reps int) float64 {
	n := arrayBytes / 8
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	gbs := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		chunk := (n + int64(threads) - 1) / int64(threads)
		for lo := int64(0); lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(dst[lo:hi], src[lo:hi])
			}()
		}
		wg.Wait()
		gbs = append(gbs, float64(2*arrayBytes)/time.Since(t0).Seconds()/1e9)
	}
	runtime.KeepAlive(dst)
	return median(gbs)
}
