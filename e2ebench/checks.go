package main

import (
	"context"
	"fmt"
	"sort"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/core"
)

// finalChecks runs the end-of-run correctness checks and returns every
// violation found:
//
//   - billing is exact: for every campaign, the impressions clients were
//     answered with equal both the campaign report's total and a recount
//     of the feeds of every user the run browsed;
//   - a user sees a Tread only if they match it: every Tread an opted-in
//     user decodes with core.Extension names an attribute the user holds,
//     and no user who did not opt in sees any Tread.
func (d *loadgen) finalChecks() []string {
	w := d.w
	ctx := context.Background()
	var bad []string
	acked := make(map[string]int)
	for id, n := range d.acked {
		acked[id] += n
	}
	for id, n := range w.setupAcked {
		acked[id] += n
	}
	users := make([]int, 0, len(d.browsed))
	for u := range d.browsed {
		users = append(users, u)
	}
	sort.Ints(users)
	seen := make(map[int]bool, len(users))
	for _, u := range users {
		seen[u] = true
	}
	for _, u := range w.setupBrowsed {
		if !seen[u] {
			seen[u] = true
			users = append(users, u)
		}
	}

	recount := make(map[string]int)
	var ext *core.Extension
	if w.tp != nil {
		ext = &core.Extension{ProviderName: provider, Codebook: w.tp.Codebook()}
	}
	cat := attr.DefaultCatalog()
	for _, u := range users {
		feed := w.st.clu.Feed(w.ids[u])
		for _, imp := range feed {
			recount[imp.CampaignID]++
		}
		if ext != nil {
			bad = append(bad, checkTreads(w, u, feed, ext, cat)...)
		}
	}

	// The load has stopped, so the owners map has no writer left.
	ids := make([]string, 0, len(w.owners))
	for id := range w.owners {
		ids = append(ids, id)
	}
	for id := range acked {
		if _, ok := w.owners[id]; !ok {
			bad = append(bad, fmt.Sprintf("impressions acknowledged for unknown campaign %s", id))
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		rep, err := w.st.clu.Report(ctx, w.owners[id], id)
		if err != nil {
			bad = append(bad, fmt.Sprintf("report for %s: %v", id, err))
			continue
		}
		if rep.Impressions != acked[id] || recount[id] != acked[id] {
			bad = append(bad, fmt.Sprintf("campaign %s: %d impressions acknowledged, report says %d, feeds hold %d",
				id, acked[id], rep.Impressions, recount[id]))
		}
	}
	return bad
}

// checkTreads checks one user's feed against the user's true attributes.
func checkTreads(w *world, u int, feed []ad.Impression, ext *core.Extension, cat *attr.Catalog) []string {
	var bad []string
	treads := 0
	for _, imp := range feed {
		if imp.Advertiser == provider {
			treads++
		}
	}
	if !w.optedIn[u] {
		if treads > 0 {
			bad = append(bad, fmt.Sprintf("user %s did not opt in but saw %d Treads", w.ids[u], treads))
		}
		return bad
	}
	rev := ext.Scan(feed, cat)
	for _, id := range rev.Attrs {
		if !w.users[u].HasAttr(id) {
			bad = append(bad, fmt.Sprintf("user %s was shown a Tread for %s, which they do not hold", w.ids[u], id))
		}
	}
	decoded := len(rev.Attrs)
	if rev.ControlSeen {
		decoded++
	}
	if decoded != treads {
		bad = append(bad, fmt.Sprintf("user %s saw %d Treads but the extension decodes %d", w.ids[u], treads, decoded))
	}
	return bad
}
