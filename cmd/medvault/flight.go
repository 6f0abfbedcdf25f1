package main

// medvault flight: the offline black-box reader. It decodes the persisted
// flight-recorder segments and postmortem bundles straight from a data
// directory — crashed, wedged, or live — without opening the vault and
// without the master key: the flight plane is PHI-free by construction
// (keyed record tokens, trace IDs, mechanism names), so reading it must not
// require the ability to decrypt records.

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"medvault/internal/core"
	"medvault/internal/faultfs"
	"medvault/internal/obs"
)

func cmdFlight(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	dir := fs.String("dir", "", "vault data directory (required; no key needed)")
	op := fs.String("op", "", "only events whose kind contains this substring (case-fold)")
	traceID := fs.String("trace", "", "only events carrying exactly this trace ID")
	record := fs.String("record", "", "only events for this record token")
	limit := fs.Int("limit", 0, "print at most the last N events (0 = all)")
	bundles := fs.Bool("bundles", false, "also dump each postmortem bundle's flight tail and anomalies")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	raw := faultfs.OS{}

	// core.ReadFlightTail knows the layout (DIR/flight for a single vault,
	// each shard's own directory in a sharded one); a torn tail — the crash
	// frontier — decodes to however many whole frames survived.
	evs, err := core.ReadFlightTail(raw, *dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medvault: %v\n", err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	// What the on-disk budget kept: a shard holds at most two rings of events.
	segs, err := core.FlightSegmentCount(raw, *dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medvault: %v\n", err)
	}
	span := ""
	if len(evs) > 0 {
		span = fmt.Sprintf(", %s to %s", evs[0].Time.Format(flightTimeLayout), evs[len(evs)-1].Time.Format(flightTimeLayout))
	}
	fmt.Printf("flight tail: %d segments, %d events%s\n", segs, len(evs), span)

	filter := obs.FlightFilter{Kind: *op, Trace: *traceID, Record: *record}
	var out []obs.FlightEvent
	for _, ev := range evs {
		if filter.Match(ev) {
			out = append(out, ev)
		}
	}
	if *limit > 0 && len(out) > *limit {
		out = out[len(out)-*limit:]
	}
	fmt.Printf("flight events: %d decoded, %d after filters\n", len(evs), len(out))
	for _, ev := range out {
		printFlightEvent(ev)
	}

	pms, _ := obs.ReadPostmortems(raw, *dir)
	if len(pms) == 0 {
		fmt.Println("postmortem bundles: none")
		return nil
	}
	fmt.Printf("postmortem bundles: %d\n", len(pms))
	for _, pm := range pms {
		fmt.Printf("  %s  %-30q  flight=%d slow_ops=%d anomalies=%d stacks=%dB\n",
			pm.Time.Format(time.RFC3339), pm.Reason,
			len(pm.Flight), len(pm.SlowOps), len(pm.Anomalies), len(pm.Stacks))
		if !*bundles {
			continue
		}
		for _, a := range pm.Anomalies {
			fmt.Printf("    anomaly %s since %s: %s\n", a.Kind, a.Since.Format(time.RFC3339), a.Detail)
		}
		for _, ev := range pm.Flight {
			fmt.Print("  ")
			printFlightEvent(ev)
		}
	}
	return nil
}

const flightTimeLayout = "2006-01-02T15:04:05.000Z07:00"

func printFlightEvent(ev obs.FlightEvent) {
	line := fmt.Sprintf("  %s  %-12s", ev.Time.Format(flightTimeLayout), ev.Kind)
	if ev.Record != "" {
		line += " record=" + ev.Record
	}
	if ev.Trace != "" {
		line += " trace=" + ev.Trace
	}
	if ev.Outcome != "" {
		line += " outcome=" + ev.Outcome
	}
	if ev.Dur > 0 {
		line += fmt.Sprintf(" dur=%s", ev.Dur.Round(time.Microsecond))
	}
	if ev.Shard != "" {
		line += " shard=" + ev.Shard
	}
	if ev.Detail != "" {
		line += fmt.Sprintf(" detail=%q", ev.Detail)
	}
	fmt.Println(line)
}
