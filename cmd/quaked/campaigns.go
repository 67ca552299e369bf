package main

import (
	"errors"
	"fmt"
	"net/http"

	"swquake/internal/ensemble"
)

// Campaign endpoints: the ensemble subsystem's HTTP face. A campaign is a
// batch of related jobs (seed sweeps, parameter grids) whose surface PGV
// fields are folded into online hazard statistics as members complete;
// the aggregate endpoint serves the current statistics at any time, not
// just after the campaign finishes.

func (s *server) registerCampaignRoutes() {
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaignCreate)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleCampaignList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignStatus)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCampaignCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/aggregate", s.handleCampaignAggregate)
}

func (s *server) handleCampaignCreate(w http.ResponseWriter, r *http.Request) {
	var spec ensemble.CampaignSpec
	if code, err := decodeBody(w, r, &spec); err != nil {
		writeError(w, code, fmt.Errorf("invalid campaign spec: %w", err))
		return
	}
	st, err := s.mgr.Create(spec)
	switch {
	case errors.Is(err, ensemble.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.mgr.Cancel(id) {
		writeError(w, http.StatusNotFound, ensemble.ErrUnknownCampaign)
		return
	}
	st, err := s.mgr.Status(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) handleCampaignAggregate(w http.ResponseWriter, r *http.Request) {
	agg, err := s.mgr.Aggregate(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, agg)
}
